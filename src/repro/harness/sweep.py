"""Deterministic parameter sweeps with process fan-out.

``sweep(fn, tasks, jobs=N)`` maps a module-level function over a list of
argument tuples. With ``jobs == 1`` the calls run inline; with
``jobs > 1`` they fan out across worker processes. Either way the result
list is ordered by sweep point (results are keyed back to their
submission index), so a parallel run is bit-identical to a serial one
*provided* each point is self-contained — which is why every stochastic
point receives its own child seed (:func:`child_seed`) instead of sharing
a process-global RNG.

Each point is a deterministic function of its task, so a failing point
is not retried: the first one (in task order) aborts the sweep with a
:class:`SweepPointError` that carries its index, task, config hash and
child seed, so the point is reproducible from the error alone. On the
pool path the points that have not started yet are cancelled first, so
the error does not wait for the rest of the sweep.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, ReproError

__all__ = [
    "SweepPointError",
    "sweep",
    "child_seed",
    "spawn_seeds",
    "task_hash",
]

# SplitMix64 constants: a cheap, well-mixed way to derive independent
# child seeds from (root seed, point index) without platform-dependent
# hashing.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def child_seed(seed: int, index: int) -> int:
    """Deterministic per-point RNG seed derived from ``(seed, index)``.

    Independent of execution order and process, so serial and parallel
    sweeps draw identical randomness at every point.
    """
    z = (int(seed) * _GOLDEN + (index + 1) * _MIX1) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & ((1 << 63) - 1)


def spawn_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent child seeds for an ``n``-point sweep."""
    return [child_seed(seed, i) for i in range(n)]


def task_hash(fn: Callable, task: Tuple) -> str:
    """Short content hash of ``(fn, task)`` identifying one sweep point.

    Stamped into :class:`SweepPointError` so a failed point is
    identifiable from the error alone.
    """
    ident = (
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', repr(fn))}{task!r}"
    )
    return hashlib.sha256(ident.encode()).hexdigest()[:12]


def _task_repr(task: Tuple, limit: int = 200) -> str:
    text = repr(task)
    return text if len(text) <= limit else text[: limit - 3] + "..."


class SweepPointError(ReproError):
    """A sweep point raised; the exception is wrapped with its context.

    ``index`` is the point's position in the task list, ``task`` a
    (truncated) repr of its arguments, ``config_hash`` its
    :func:`task_hash`, and ``child_seed`` the point's seed
    ``child_seed(seed, index)`` — the value
    :meth:`~repro.harness.RunContext.child_seed` hands the same point.
    The original exception is the ``__cause__``.
    """

    def __init__(
        self, fn: Callable, task: Tuple, index: int, seed: int,
        exc: BaseException,
    ) -> None:
        self.index = index
        self.task = _task_repr(task)
        self.config_hash = task_hash(fn, task)
        self.child_seed = child_seed(seed, index)
        first_line = str(exc).splitlines()[0] if str(exc) else ""
        super().__init__(
            f"sweep point {index} {self.task} failed [config "
            f"{self.config_hash}, child seed {self.child_seed}]: "
            f"{type(exc).__name__}: {first_line}"
        )


def _gather(
    fn: Callable,
    tasks: Sequence[Tuple],
    seed: int,
    outcomes: Sequence[Callable[[], Any]],
) -> List[Any]:
    """Call each point's outcome in task order, wrapping the first
    failure with its point context."""
    results = []
    for index, (task, outcome) in enumerate(zip(tasks, outcomes)):
        try:
            results.append(outcome())
        except Exception as exc:
            raise SweepPointError(fn, task, index, seed, exc) from exc
    return results


def sweep(
    fn: Callable,
    tasks: Sequence[Tuple],
    *,
    jobs: Optional[int] = 1,
    seed: int = 0,
) -> List[Any]:
    """Run ``fn(*task)`` for every task, returning results in task order.

    Args:
        fn: A picklable (module-level) function when ``jobs > 1``.
        tasks: One argument tuple per sweep point.
        jobs: ``1`` runs inline; ``> 1`` uses that many worker processes;
            ``None``/``0`` uses ``os.cpu_count()``.
        seed: The sweep's root seed — only used to report the failed
            point's child seed in :class:`SweepPointError`.

    Results are keyed and re-ordered by sweep point, never by completion
    order, so parallelism cannot change the output.
    """
    tasks = [tuple(t) for t in tasks]
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        return _gather(
            fn, tasks, seed, [functools.partial(fn, *t) for t in tasks]
        )
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        try:
            return _gather(fn, tasks, seed, [f.result for f in futures])
        except SweepPointError:
            # The pool's exit waits for every queued point; cancel the
            # ones not yet started so the error surfaces now.
            for future in futures:
                future.cancel()
            raise
