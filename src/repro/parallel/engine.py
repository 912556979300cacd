"""The worker-pool execution engine.

Everything the paper's evaluation repeats — MA-TARW walk instances, SRW
chains, benchmark replicates, pilot walks — is embarrassingly parallel:
runs share no mutable state beyond the read-only platform.  The engine
fans an ordered list of tasks over a pool and returns results **in task
order**, so merges downstream are deterministic regardless of completion
interleaving.

Executor selection (``executor=`` on :class:`ExecutionEngine`):

* ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor`; the
  only way to real CPU parallelism in CPython.  Requires the task
  function and arguments to be picklable (ship platforms through
  :class:`~repro.parallel.platform_ref.PlatformRef`).
* ``"thread"`` — :class:`~concurrent.futures.ThreadPoolExecutor`; shares
  the live in-process platform, so it is the natural home for
  simulator-backed shard runs, and it genuinely overlaps any real
  per-call API latency (the "Walk, Not Wait" effect).  Latency is all it
  overlaps: pure Python compute serialises on the GIL, and threads
  passing it back and forth cost each task more CPU than one thread does
  (see docs/BENCHMARKS.md), so callers whose tasks never wait should ask
  for one worker (the estimation service runs zero-latency batches
  inline).
* ``"auto"`` (default) — probe-pickle the first task and pick
  ``"process"`` when it round-trips, else fall back to ``"thread"``.
  Closures over live simulators therefore run threaded without the
  caller doing anything.
* ``"serial"`` — run inline, in order.  ``n_workers <= 1`` or a single
  task resolves to this too.

Determinism contract: the engine never influences *what* a task computes
— tasks carry their own pre-spawned RNG streams (see
:func:`repro._rng.spawn_worker_seeds`) — and result order is submission
order, so any worker count yields byte-identical merged results for
deterministic tasks.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError, TransientAPIError

EXECUTORS = ("auto", "process", "thread", "serial")

DEFAULT_SHARDS = 8
"""Logical walk shards a parallel estimator partitions its budget into.

Fixed independently of ``n_workers`` on purpose: the shard plan (budget
split, RNG streams, merge order) is a function of the master seed, the
budget and the shard count only, so ``n_workers=1`` and ``n_workers=8``
produce the identical estimate — workers only change how many shards run
at once.
"""

MIN_SHARD_BUDGET = 2_000
"""Floor on per-shard API calls before the default shard count backs off.

Shards run on private clients (no shared response cache), so each one
re-pays graph discovery before its walks contribute; below roughly this
many calls a TARW shard spends everything on coverage and its walks abort
on budget exhaustion, biasing the merged estimate.  The budget is part of
the deterministic plan, so adapting to it never breaks worker-count
invariance — an explicit ``n_shards`` overrides the backoff.
"""


@dataclass(frozen=True)
class ParallelConfig:
    """How an estimator should decompose and execute its walk budget."""

    n_workers: int = 1
    n_shards: Optional[int] = None
    """None → :data:`DEFAULT_SHARDS`.  Changing the shard count changes
    the decomposition (and hence the estimate); changing ``n_workers``
    never does."""
    executor: str = "auto"
    transient_retries: int = 0
    """Shard-level fault recovery: re-run a whole shard whose task raised
    a :class:`TransientAPIError` this many times before propagating.

    Off by default because the estimators already recover internally
    (step retries + instance checkpointing) and a shard re-run repeats
    its deterministic fault draws verbatim — it only helps against
    *nondeterministic* backends (a future live-API client), which is the
    scenario this knob exists for."""

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ReproError("n_workers must be >= 1")
        if self.n_shards is not None and self.n_shards < 1:
            raise ReproError("n_shards must be >= 1")
        if self.executor not in EXECUTORS:
            raise ReproError(f"executor must be one of {EXECUTORS}")
        if self.transient_retries < 0:
            raise ReproError("transient_retries must be >= 0")

    def resolved_shards(self, budget: Optional[int] = None) -> int:
        """Shard count for a run with *budget* remaining API calls.

        Explicit ``n_shards`` always wins; the default backs off from
        :data:`DEFAULT_SHARDS` so no shard drops below
        :data:`MIN_SHARD_BUDGET` calls (see its docstring).
        """
        if self.n_shards is not None:
            return self.n_shards
        if budget is None:
            return DEFAULT_SHARDS
        return max(1, min(DEFAULT_SHARDS, budget // MIN_SHARD_BUDGET))


def _timed_call(fn: Callable, args: Tuple) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class _TransientRetry:
    """Picklable task wrapper that re-runs transiently failed tasks.

    A module-level class (not a closure) so a wrapped task stays
    process-executable whenever the underlying task is.  Retries only
    the :class:`TransientAPIError` family; all other exceptions, and a
    failure that persists past the retry budget, propagate unchanged.
    """

    def __init__(self, fn: Callable, retries: int) -> None:
        self.fn = fn
        self.retries = retries

    def __call__(self, *args):
        for _ in range(self.retries):
            try:
                return self.fn(*args)
            except TransientAPIError:
                continue
        return self.fn(*args)


class ExecutionEngine:
    """Ordered fan-out of tasks over serial/thread/process execution.

    After :meth:`run`, ``resolved`` holds the executor actually used,
    ``task_seconds`` the per-task wall times (task order) and
    ``wall_seconds`` the end-to-end fan-out time.
    """

    def __init__(
        self, n_workers: int = 1, executor: str = "auto", transient_retries: int = 0
    ) -> None:
        if n_workers < 1:
            raise ReproError("n_workers must be >= 1")
        if executor not in EXECUTORS:
            raise ReproError(f"executor must be one of {EXECUTORS}")
        if transient_retries < 0:
            raise ReproError("transient_retries must be >= 0")
        self.n_workers = n_workers
        self.executor = executor
        self.transient_retries = transient_retries
        """See :attr:`ParallelConfig.transient_retries` — whole-task
        re-runs on :class:`TransientAPIError`, via :class:`_TransientRetry`."""
        self.resolved: Optional[str] = None
        self.task_seconds: List[float] = []
        self.wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    def run(self, fn: Callable, tasks: Sequence[Tuple]) -> List[Any]:
        """Apply *fn* to every argument tuple; results in task order.

        A task raising propagates the first exception in task order (the
        remaining futures are still drained so the pool shuts down
        cleanly).
        """
        tasks = [tuple(task) for task in tasks]
        if self.transient_retries > 0:
            fn = _TransientRetry(fn, self.transient_retries)
        start = time.perf_counter()
        try:
            if not tasks:
                self.resolved = "serial"
                return []
            mode = self._resolve(fn, tasks)
            if mode == "process":
                try:
                    timed = self._run_pool(ProcessPoolExecutor, fn, tasks)
                except (BrokenProcessPool, pickle.PicklingError):
                    # e.g. an unpicklable *result*; threads always work.
                    mode = "thread"
                    timed = self._run_pool(ThreadPoolExecutor, fn, tasks)
            elif mode == "thread":
                timed = self._run_pool(ThreadPoolExecutor, fn, tasks)
            else:
                timed = [_timed_call(fn, task) for task in tasks]
            self.resolved = mode
            self.task_seconds = [seconds for _, seconds in timed]
            return [result for result, _ in timed]
        finally:
            self.wall_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    def _resolve(self, fn: Callable, tasks: Sequence[Tuple]) -> str:
        if self.executor == "serial" or self.n_workers <= 1 or len(tasks) <= 1:
            return "serial"
        if self.executor == "thread":
            return "thread"
        try:
            pickle.dumps((fn, tasks[0]))
            return "process"
        except Exception:
            if self.executor == "process":
                raise ReproError(
                    "tasks are not picklable for process execution "
                    "(closures over live simulators?); use executor='thread'"
                ) from None
            return "thread"  # the documented simulator-backed fallback

    def _run_pool(self, pool_cls, fn: Callable, tasks: Sequence[Tuple]) -> List[Tuple[Any, float]]:
        workers = min(self.n_workers, len(tasks))
        with pool_cls(max_workers=workers) as pool:
            futures = [pool.submit(_timed_call, fn, task) for task in tasks]
            results: List[Tuple[Any, float]] = []
            error: Optional[BaseException] = None
            for future in futures:
                try:
                    results.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if error is None:
                        error = exc
            if error is not None:
                raise error
            return results
