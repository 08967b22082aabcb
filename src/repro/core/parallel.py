"""Parallel sweep executor: process pools, journaling, checkpoint/resume.

The paper's whole pitch is cheap bulk evaluation of design points (minutes
of synthetic simulation against 88.5-hour GEMS runs), and the sweep driver
is the hot path that delivers it.  This module runs the cartesian product
of sweep axes through a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **Determinism.**  Every point gets a child seed derived from the base
  config's seed and the point's coordinates via :func:`repro.rng.sweep_seed`.
  The derivation is independent of enumeration order and worker assignment,
  so a parallel run produces records bit-identical to a serial run (modulo
  the per-point ``wall_seconds`` timing field), returned in the canonical
  enumeration order regardless of completion order.
* **Pool lifecycle.**  A :class:`WorkerPool` owns the executor and the one
  kill/rebuild path.  ``run_sweep`` opens and closes its own pool unless
  the caller hands it one (``pool=``), so a caller running many sweeps —
  the explorer's generations, the steered sweep's sub-sweeps — forks its
  workers once instead of once per sweep.
* **Checkpoint/resume.**  With ``journal=`` set, each completed point is
  appended to a JSON-lines file as it finishes (via
  :func:`repro.analysis.io.append_jsonl`).  Re-running with ``resume=True``
  reloads the journal, skips every journaled point, and executes only the
  missing ones; a journal truncated mid-line by a crash parses cleanly.
* **Fault isolation.**  A runner that raises — or a worker process that
  dies, or a point that exceeds ``point_timeout`` — yields a record marked
  ``failed=True`` with the exception string under ``"error"`` instead of
  killing the sweep; every other point still completes.
* **Self-healing.**  *Transient* failures — a worker process dying, or a
  run aborted by the engine watchdog (:class:`SimulationStalled`) — are
  retried up to ``max_retries`` times with capped exponential backoff and
  jitter before the point is recorded as failed.  Deterministic runner
  exceptions are **not** retried: the same config and seed would fail the
  same way, so retrying only burns CPU.  A point that exceeds
  ``point_timeout`` gets its worker *killed* (the whole pool is torn down
  and rebuilt; innocent in-flight points are resubmitted and re-run
  deterministically), so a hung simulation cannot occupy a pool slot for
  the rest of the sweep.  The returned :class:`SweepRecords` carries a
  :class:`SweepHealth` summary (ok / failed / retried / timed-out /
  worker-death counts), and a KeyboardInterrupt flushes that summary to
  the journal before re-raising so a killed sweep remains resumable.
* **Observability.**  A ``progress`` callback receives a
  :class:`SweepProgress` (points done/total/failed, rate, ETA) after every
  completed point.

``n_workers=1`` (the default) runs everything in-process with no pool, so
lambdas and closures keep working for quick interactive sweeps; with
``n_workers > 1`` the runner and its outputs must be picklable (a
module-level function, or :func:`functools.partial` over one).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from .. import rng
from ..analysis.io import append_jsonl, canonical_json, read_jsonl
from ..config import NetworkConfig
from . import cache as result_cache
from .resilience import RetryPolicy, SimulationStalled

__all__ = [
    "SweepPoint",
    "SweepProgress",
    "SweepHealth",
    "SweepRecords",
    "WorkerPool",
    "enumerate_points",
    "run_sweep",
    "sweep_fingerprint",
    "check_journal_fingerprint",
]

#: Seconds between pool polls; bounds timeout-detection latency.
_POLL_SECONDS = 0.05

#: Upper bound on a single retry backoff sleep (seconds).
_MAX_BACKOFF = 5.0

#: ``error_kind`` values eligible for retry (transient by nature).
_TRANSIENT_KINDS = frozenset({"stalled", "worker_death"})


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: its canonical index, coordinates, and seed."""

    #: Position in the canonical enumeration order (journal key).
    index: int
    #: Config-field overrides applied via ``base.with_(**overrides)``.
    overrides: Mapping[str, Any]
    #: Extra-axis values passed to the runner as keyword arguments.
    kwargs: Mapping[str, Any]
    #: Seed the point's config carries (derived or explicit).
    seed: int

    @property
    def coords(self) -> dict[str, Any]:
        """All axis coordinates (config overrides then extra axes)."""
        return {**self.overrides, **self.kwargs}


@dataclass(frozen=True)
class SweepProgress:
    """Progress snapshot handed to the ``progress`` callback per point.

    ``rate`` and ``eta`` are computed over points completed in *this* run
    (resumed journal entries count toward ``done`` but not the rate, so the
    ETA stays honest after a resume).  ``eta`` is ``inf`` until the first
    point of the run completes.
    """

    done: int
    total: int
    failed: int
    elapsed: float
    rate: float
    eta: float

    @property
    def remaining(self) -> int:
        return self.total - self.done


@dataclass
class SweepHealth:
    """Per-sweep health summary: how the run degraded, if it did.

    ``ok + failed == total`` for a sweep that ran to the end; ``retried``
    counts retry *attempts* (a point retried twice adds two), ``timed_out``
    and ``stalled`` break the failures down by cause, ``worker_deaths``
    counts pool-rebuild events, and ``interrupted`` marks a sweep cut short
    by KeyboardInterrupt (the summary is flushed to the journal first).
    """

    total: int = 0
    ok: int = 0
    failed: int = 0
    retried: int = 0
    timed_out: int = 0
    stalled: int = 0
    worker_deaths: int = 0
    interrupted: bool = False
    #: points satisfied from / missed by the result cache (0/0 = no cache)
    cache_hits: int = 0
    cache_misses: int = 0
    #: service-mode counters: worker quarantine events, and completions for
    #: leases that had already expired or been re-assigned (dropped — the
    #: re-leased run's record is authoritative, and identical anyway).
    quarantined: int = 0
    stale_results: int = 0

    def summary(self) -> str:
        parts = [f"{self.ok}/{self.total} ok"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.timed_out:
            parts.append(f"{self.timed_out} timed out")
        if self.stalled:
            parts.append(f"{self.stalled} stalled")
        if self.retried:
            parts.append(f"{self.retried} retries")
        if self.worker_deaths:
            parts.append(f"{self.worker_deaths} worker deaths")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantines")
        if self.stale_results:
            parts.append(f"{self.stale_results} stale results")
        if self.cache_hits or self.cache_misses:
            parts.append(f"{self.cache_hits}/{self.cache_hits + self.cache_misses} cache hits")
        if self.interrupted:
            parts.append("interrupted")
        return ", ".join(parts)


class SweepRecords(list):
    """The records of one sweep (a plain list) plus its health summary.

    Subclassing ``list`` keeps every existing consumer working — indexing,
    iteration, ``len`` — while ``.health`` carries the
    :class:`SweepHealth` for callers that want it.
    """

    def __init__(self, records=(), health: SweepHealth | None = None):
        super().__init__(records)
        self.health = health if health is not None else SweepHealth()


def _jsonable(mapping: Mapping[str, Any]) -> dict[str, Any]:
    """A mapping as it will read back from a JSON journal (tuples→lists…)."""
    return json.loads(json.dumps(dict(mapping), default=str))


def enumerate_points(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    extra_axes: Mapping[str, Sequence[Any]] | None = None,
    *,
    derive_seeds: bool = True,
) -> list[SweepPoint]:
    """The cartesian product of ``axes`` × ``extra_axes`` in canonical order.

    The order is the one the serial driver has always used: the outer
    product walks the config axes in mapping order, the inner product walks
    the extra axes.  With ``derive_seeds`` each point's seed comes from
    :func:`repro.rng.sweep_seed` over its full coordinates — unless
    ``"seed"`` is itself a swept config axis, in which case the explicit
    value wins (sweeping over seeds means the caller wants exactly those
    seeds).
    """
    axes = dict(axes)
    extra_axes = dict(extra_axes or {})
    overlap = set(axes) & set(extra_axes)
    if overlap:
        raise ValueError(f"axes and extra_axes share names: {sorted(overlap)}")
    names = list(axes)
    extra_names = list(extra_axes)
    points: list[SweepPoint] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        overrides = dict(zip(names, combo))
        for extra_combo in itertools.product(*(extra_axes[n] for n in extra_names)):
            kwargs = dict(zip(extra_names, extra_combo))
            if "seed" in overrides:
                seed = int(overrides["seed"])
            elif derive_seeds:
                seed = rng.sweep_seed(base.seed, {**overrides, **kwargs})
            else:
                seed = base.seed
            points.append(SweepPoint(len(points), overrides, kwargs, seed))
    return points


def _failed_record(
    point: SweepPoint, error: str, elapsed: float = 0.0, kind: str = "error"
) -> dict[str, Any]:
    rec = dict(point.coords)
    rec["failed"] = True
    rec["error"] = error
    rec["error_kind"] = kind
    rec["wall_seconds"] = elapsed
    return rec


def _execute_point(
    runner: Callable[..., Mapping[str, Any]],
    base: NetworkConfig,
    point: SweepPoint,
) -> dict[str, Any]:
    """Run one point; exceptions become a failed record, never propagate.

    ``error_kind`` classifies failures for the retry policy: ``"stalled"``
    (the engine watchdog aborted the run — transient, retried) versus
    ``"error"`` (a deterministic runner exception — never retried).  The
    stall record keeps only the first diagnosis line; the full snapshot is
    multi-line and belongs in logs, not in every journal record.
    """
    start = time.perf_counter()
    try:
        cfg = base.with_(**{**point.overrides, "seed": point.seed})
        out = runner(cfg, **point.kwargs) if point.kwargs else runner(cfg)
        rec = dict(point.coords)
        rec.update(out)
    except SimulationStalled as exc:
        first_line = str(exc).splitlines()[0]
        return _failed_record(
            point,
            f"SimulationStalled: {first_line}",
            time.perf_counter() - start,
            kind="stalled",
        )
    except Exception as exc:
        return _failed_record(
            point, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
        )
    rec["wall_seconds"] = time.perf_counter() - start
    return rec


def _backoff_seconds(attempt: int, retry_backoff: float) -> float:
    """Capped exponential backoff with jitter for retry ``attempt`` (1-based).

    Kept as the unseeded historical entry point; the executor itself goes
    through a :class:`~repro.core.resilience.RetryPolicy`, whose jitter can
    be seeded (``run_sweep(seed_jitter=True)``).
    """
    return RetryPolicy(backoff=retry_backoff, max_backoff=_MAX_BACKOFF).delay(attempt)


def sweep_fingerprint(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    extra_axes: Mapping[str, Sequence[Any]] | None = None,
) -> str:
    """Identity of one sweep: resolved base config × axes × code version.

    The sha256 covers the base configuration, every axis (names and
    values), and the code-version salt of the simulation hot paths — so a
    journal written by one sweep is recognized (and a mismatched resume
    refused) after the config, the axes, or the simulator itself changed.
    The runner is deliberately *not* part of the identity: resuming with a
    wrapped or instrumented runner that produces the same records is a
    supported workflow (and the per-entry coordinate check still guards
    the points themselves).
    """
    payload = {
        "config": _jsonable(asdict(base)),
        "axes": _jsonable({k: list(v) for k, v in dict(axes).items()}),
        "extra_axes": _jsonable({k: list(v) for k, v in dict(extra_axes or {}).items()}),
        "salt": result_cache.cache_salt(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def check_journal_fingerprint(journal, fingerprint: str, *, force: bool = False) -> None:
    """Refuse to resume a journal recorded under a different fingerprint.

    The header is the ``{"sweep": {...}}`` line a journaling sweep writes
    first.  Journals from before fingerprints existed have no header and
    resume as they always did; a mismatched header means the config, axes,
    runner, or simulation code changed since the journal was written, and
    mixing old records with new runs would corrupt the sweep silently —
    fail with the reason instead, unless ``force`` explicitly overrides.
    """
    for entry in read_jsonl(journal):
        header = entry.get("sweep")
        if not isinstance(header, Mapping):
            continue
        recorded = header.get("fingerprint")
        if recorded is not None and recorded != fingerprint and not force:
            raise ValueError(
                f"journal {journal} was written by a different sweep "
                f"(fingerprint {str(recorded)[:12]}… != {fingerprint[:12]}…): "
                "the config, axes, runner, or simulation code changed since "
                "it was recorded; pass resume_force=True (CLI --force-resume) "
                "to resume anyway, or start fresh with resume=False"
            )
        return


def _journal_header(fingerprint: str, total: int) -> dict[str, Any]:
    from .. import __version__

    return {"sweep": {"fingerprint": fingerprint, "total": total, "version": __version__}}


def _load_journal(journal, points: Sequence[SweepPoint]) -> dict[int, dict[str, Any]]:
    """Completed records from a journal, keyed by point index.

    Entries are validated against the current enumeration: an index outside
    the sweep or coordinates that no longer match mean the journal belongs
    to a different sweep, and resuming from it would silently mix records —
    refuse instead.
    """
    by_index = {p.index: p for p in points}
    completed: dict[int, dict[str, Any]] = {}
    for entry in read_jsonl(journal):
        if "index" not in entry or "record" not in entry:
            continue
        index = entry["index"]
        point = by_index.get(index)
        if point is None:
            raise ValueError(
                f"journal {journal} has point index {index} outside this "
                f"{len(points)}-point sweep; it belongs to a different sweep"
            )
        if entry.get("point") != _jsonable(point.coords):
            raise ValueError(
                f"journal {journal} point {index} has coordinates "
                f"{entry.get('point')!r}, but this sweep's point {index} is "
                f"{_jsonable(point.coords)!r}; refusing to resume across "
                "changed axes"
            )
        completed[index] = entry["record"]
    return completed


class WorkerPool:
    """A process pool that can outlive one sweep.

    The owner — whoever constructed it — closes it (it is a context
    manager).  The executor starts lazily on the first :meth:`submit`, so
    a pool whose sweeps were all answered from the cache never forks.
    :meth:`rebuild` kills every worker at once (the only way to stop a
    hung task) and the next submit starts a fresh executor: after a worker
    death, a timeout, or a sweep that left with tasks in flight, the next
    sweep on the same pool gets live workers and no stale task.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 2:
            raise ValueError("a WorkerPool needs n_workers >= 2")
        self.n_workers = n_workers
        self.closed = False
        self._executor: Optional[ProcessPoolExecutor] = None

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._executor.submit(fn, *args)

    def rebuild(self) -> None:
        """Kill the workers now; the next :meth:`submit` starts new ones.

        ``ProcessPoolExecutor`` has no way to cancel one running task, so
        killing a hung worker means killing them all — the callers
        resubmit the innocent in-flight points, whose re-runs are
        deterministic (per-point derived seeds), so no result changes.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        procs = getattr(executor, "_processes", None)
        processes = list(procs.values()) if procs else []
        for proc in processes:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            proc.join(timeout=5.0)

    def close(self) -> None:
        self.rebuild()
        self.closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _run_pool(
    pending: Sequence[SweepPoint],
    runner: Callable[..., Mapping[str, Any]],
    base: NetworkConfig,
    pool: WorkerPool,
    point_timeout: float | None,
    emit: Callable[[SweepPoint, dict[str, Any]], None],
    health: SweepHealth,
    policy: RetryPolicy,
    pending_attempts: Optional[Sequence[int]] = None,
) -> None:
    """Execute ``pending`` on ``pool``, emitting records as they land.

    Submissions are windowed so huge sweeps don't pin every argument tuple
    in memory at once.  With ``point_timeout`` set the window shrinks to
    exactly ``pool.n_workers`` outstanding futures, so every in-flight
    future is actually *executing* — timing a future from submission would
    otherwise falsely expire points merely queued behind a slow sibling.

    Self-healing behavior:

    * a point over ``point_timeout`` → its worker is killed (pool teardown
      + rebuild), the point is recorded as timed out (no retry — the same
      deterministic run would hang again), innocent in-flight points are
      resubmitted at their current attempt count;
    * a dead worker (``BrokenProcessPool``) → pool rebuild; every point
      that was in flight is retried with backoff, since any of them may
      have been the victim and re-running a completed-but-unreported point
      is deterministic;
    * a record with a transient ``error_kind`` (``"stalled"``) → retried
      with backoff up to ``max_retries`` times.

    Leaving early — an exception from ``emit`` or a KeyboardInterrupt —
    rebuilds the pool, so no task of this call can land in the pool's next
    sweep.  A normal return leaves nothing in flight and the workers warm.
    """
    # Queue entries are (point, attempt); ``delayed`` holds backoff retries
    # as (ready_monotonic, point, attempt).  ``pending_attempts`` lets the
    # service's local-fallback path resume points mid-retry-budget.
    attempts = pending_attempts if pending_attempts is not None else [0] * len(pending)
    queue: deque[tuple[SweepPoint, int]] = deque(zip(pending, attempts))
    delayed: list[tuple[float, SweepPoint, int]] = []
    inflight: dict[Future, tuple[SweepPoint, int, float]] = {}
    window = pool.n_workers if point_timeout is not None else 2 * pool.n_workers

    def retry_or_fail(
        point: SweepPoint, attempt: int, record: dict[str, Any], *, now: float
    ) -> None:
        """Requeue a transient failure with backoff, or emit it as final."""
        if attempt < policy.max_retries:
            health.retried += 1
            delayed.append((now + policy.delay(attempt + 1), point, attempt + 1))
        else:
            emit(point, record)

    def rebuild_pool(reason_points: list[tuple[SweepPoint, int]]) -> None:
        """Kill the pool, requeue ``reason_points`` at their attempts, rebuild."""
        pool.rebuild()
        inflight.clear()
        queue.extendleft(reversed(reason_points))

    try:
        while queue or inflight or delayed:
            now = time.monotonic()
            if delayed:
                ready = [e for e in delayed if e[0] <= now]
                if ready:
                    delayed = [e for e in delayed if e[0] > now]
                    for _, point, attempt in ready:
                        queue.append((point, attempt))
            while queue and len(inflight) < window:
                point, attempt = queue.popleft()
                try:
                    future = pool.submit(_execute_point, runner, base, point)
                except BrokenProcessPool:
                    # Same treatment as a death detected at result time:
                    # every in-flight point may be the victim, retry them.
                    health.worker_deaths += 1
                    for p, a, _ in list(inflight.values()):
                        retry_or_fail(
                            p,
                            a,
                            _failed_record(p, "worker process died", kind="worker_death"),
                            now=time.monotonic(),
                        )
                    rebuild_pool([(point, attempt)])
                    break
                inflight[future] = (point, attempt, time.monotonic())
            if not inflight:
                if delayed:
                    time.sleep(
                        min(max(min(e[0] for e in delayed) - now, 0.0), 0.5)
                    )
                continue
            done, _ = wait(
                list(inflight), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            broken = False
            for future in done:
                point, attempt, _ = inflight.pop(future)
                try:
                    record = future.result()
                except BrokenProcessPool:
                    # Handled below together with the other in-flight points.
                    broken = True
                    inflight[future] = (point, attempt, now)
                    break
                except Exception as exc:  # e.g. unpicklable runner output
                    record = _failed_record(point, f"{type(exc).__name__}: {exc}")
                if policy.is_transient(record.get("error_kind")):
                    retry_or_fail(point, attempt, record, now=now)
                else:
                    emit(point, record)
            if broken:
                # A worker died.  Any in-flight point may be the victim;
                # retry them all (deterministic re-runs), each charged one
                # attempt so a point that reliably kills its worker — e.g.
                # an OOM — converges to a failed record instead of cycling.
                health.worker_deaths += 1
                for point, attempt, _ in list(inflight.values()):
                    record = _failed_record(
                        point, "worker process died", kind="worker_death"
                    )
                    retry_or_fail(point, attempt, record, now=now)
                rebuild_pool([])
                continue
            if point_timeout is not None:
                overdue = [
                    (future, point, attempt, started)
                    for future, (point, attempt, started) in inflight.items()
                    if now - started > point_timeout and not future.done()
                ]
                if overdue:
                    # Kill the hung worker(s): tear the pool down and
                    # resubmit the innocent in-flight points.
                    for future, point, attempt, started in overdue:
                        del inflight[future]
                        emit(
                            point,
                            _failed_record(
                                point,
                                f"TimeoutError: point exceeded {point_timeout:g}s"
                                " (worker killed)",
                                now - started,
                                kind="timeout",
                            ),
                        )
                    innocents = [
                        (point, attempt) for point, attempt, _ in inflight.values()
                    ]
                    rebuild_pool(innocents)
    except BaseException:
        pool.rebuild()
        raise


def run_sweep(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    runner: Callable[..., Mapping[str, Any]],
    *,
    extra_axes: Mapping[str, Sequence[Any]] | None = None,
    n_workers: int = 1,
    journal=None,
    resume: bool = False,
    resume_force: bool = False,
    point_timeout: float | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    derive_seeds: bool = True,
    max_retries: int = 2,
    retry_backoff: float = 0.25,
    seed_jitter: bool = False,
    cache=None,
    pool: WorkerPool | None = None,
) -> SweepRecords:
    """Run ``runner`` over every sweep point; collect records in canonical order.

    Parameters mirror :func:`repro.core.sweep.sweep` plus the executor
    knobs described in the module docstring.  ``journal`` names the
    JSON-lines checkpoint file; with ``resume=False`` an existing journal
    is truncated (a fresh sweep), with ``resume=True`` its points are
    skipped and only missing ones run.  ``point_timeout`` (seconds, pool
    mode only) kills the hung worker and marks the point failed without
    killing the sweep.  Transient failures (worker death, watchdog stalls)
    are retried up to ``max_retries`` times with capped exponential backoff
    starting at ``retry_backoff`` seconds; the returned
    :class:`SweepRecords` list carries the sweep's :class:`SweepHealth`
    under ``.health``.

    ``cache`` names a content-addressed result store (a directory path or
    a :class:`repro.core.cache.ResultCache`).  Each point is looked up by
    its fingerprint — resolved config, kwargs, runner identity, code salt
    — *before* it is dispatched; hits replay the stored record (journal
    and progress included, counted in ``health.cache_hits``), misses run
    and are written back on success only.  ``REPRO_NO_CACHE=1`` disables
    the cache regardless of this argument; records are bit-identical with
    the cache cold, warm, or off.

    A journaling sweep writes a header line first — the sweep's
    :func:`sweep_fingerprint` over config × axes × runner × code salt —
    and a resume against a journal whose header differs fails with the
    reason instead of silently mixing records; ``resume_force=True``
    overrides the check (pre-header journals resume as they always did).
    ``seed_jitter=True`` derives the retry backoff jitter from the sweep's
    seed (via :func:`repro.rng.spawn`) instead of the process-global
    :mod:`random`, making self-healing retry timelines deterministic; the
    default keeps the historical unseeded jitter.

    ``pool`` is a caller-owned :class:`WorkerPool` to run the points on
    (``n_workers`` is then the pool's size); it stays open afterwards, so
    a caller running many sweeps forks its workers once.  Without it, a
    call with ``n_workers > 1`` opens its own pool and closes it on return.
    """
    if pool is not None:
        n_workers = pool.n_workers
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if point_timeout is not None and n_workers == 1:
        raise ValueError(
            "point_timeout needs a process pool (n_workers > 1): the serial "
            "driver runs points in-process and cannot kill a hung one"
        )
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    points = enumerate_points(base, axes, extra_axes, derive_seeds=derive_seeds)
    results: dict[int, dict[str, Any]] = {}
    by_index = {p.index: p for p in points}
    fingerprint = sweep_fingerprint(base, axes, extra_axes)
    if journal is not None:
        if resume:
            check_journal_fingerprint(journal, fingerprint, force=resume_force)
            results.update(_load_journal(journal, points))
            # Rewrite the journal with only the valid entries: a partial
            # trailing line left by a crash has no newline, and appending
            # straight after it would corrupt the next record.
            open(journal, "w").close()
            append_jsonl(_journal_header(fingerprint, len(points)), journal)
            append_jsonl(
                (
                    {
                        "index": index,
                        "point": _jsonable(by_index[index].coords),
                        "record": record,
                    }
                    for index, record in sorted(results.items())
                ),
                journal,
            )
        else:
            open(journal, "w").close()
            append_jsonl(_journal_header(fingerprint, len(points)), journal)
    pending = [p for p in points if p.index not in results]
    health = SweepHealth(total=len(points))

    # Resumed journal entries are counted exactly once, HERE — before any
    # cache prefill or replay runs.  The invariant the cache-hit summary
    # depends on: ``pending`` excludes every resumed index, so a resumed
    # point can never appear in ``cache_hit_records`` and be re-counted as
    # a cache hit ("N/M cache hits" covers fresh points only).
    for record in results.values():
        if record.get("failed"):
            health.failed += 1
        else:
            health.ok += 1

    # Cache lookup happens before dispatch: hits never touch the pool.
    # Misses remember their key so ``emit`` can write back on success.
    store = result_cache.resolve_cache(cache)
    cache_keys: dict[int, str] = {}
    cache_meta: dict[int, dict[str, Any]] = {}
    cache_hit_records: list[tuple[SweepPoint, dict[str, Any]]] = []
    if store is not None:
        salt = result_cache.cache_salt()
        spec = result_cache.runner_spec(runner)
        dotted, runner_kwargs = result_cache.provenance(spec)
        misses: list[SweepPoint] = []
        for point in pending:
            cfg_dict = base.with_(**{**point.overrides, "seed": point.seed}).as_dict()
            key = result_cache.point_key(cfg_dict, point.kwargs, spec, salt=salt)
            hit = store.get(key)
            if hit is not None:
                cache_hit_records.append((point, hit))
                continue
            misses.append(point)
            cache_keys[point.index] = key
            cache_meta[point.index] = {
                "context": "sweep",
                "runner_spec": {"runner": dotted} if dotted else {},
                "runner_kwargs": runner_kwargs,
                "config": cfg_dict,
                "kwargs": dict(point.kwargs),
                "coords": sorted(point.coords),
            }
        health.cache_hits = len(cache_hit_records)
        health.cache_misses = len(misses)
        pending = misses

    start = time.monotonic()
    completed_in_run = 0

    def emit(point: SweepPoint, record: dict[str, Any]) -> None:
        nonlocal completed_in_run
        if point.index in results:
            # A record for this index was already accounted (journal
            # resume, or a duplicate replay): emitting again would
            # double-count ok/failed and the "N/M cache hits" summary.
            # Mirrors the service controller's ``_emit`` guard.
            return
        results[point.index] = record
        completed_in_run += 1
        if record.get("failed"):
            health.failed += 1
            kind = record.get("error_kind")
            if kind == "timeout":
                health.timed_out += 1
            elif kind == "stalled":
                health.stalled += 1
        else:
            health.ok += 1
            # Write-back on success only: failed/stalled/timed-out points
            # must re-run next time, never replay.  Cache hits carry no
            # pending key, so they naturally skip the write.
            if store is not None:
                key = cache_keys.pop(point.index, None)
                if key is not None:
                    store.put(key, record, cache_meta.pop(point.index, None))
        if journal is not None:
            append_jsonl(
                {"index": point.index, "point": _jsonable(point.coords), "record": record},
                journal,
            )
        if progress is not None:
            elapsed = time.monotonic() - start
            rate = completed_in_run / elapsed if elapsed > 0 else 0.0
            left = len(points) - len(results)
            progress(
                SweepProgress(
                    done=len(results),
                    total=len(points),
                    failed=sum(1 for r in results.values() if r.get("failed")),
                    elapsed=elapsed,
                    rate=rate,
                    eta=left / rate if rate > 0 else float("inf"),
                )
            )

    # Replay cache hits through ``emit`` so the journal, progress callback,
    # and health counters see them exactly like freshly computed points.
    for point, record in cache_hit_records:
        emit(point, record)

    policy = (
        RetryPolicy.seeded(base.seed, max_retries=max_retries, backoff=retry_backoff)
        if seed_jitter
        else RetryPolicy(max_retries=max_retries, backoff=retry_backoff)
    )
    try:
        if n_workers == 1:
            for point in pending:
                record = _execute_point(runner, base, point)
                attempt = 0
                while policy.should_retry(record.get("error_kind"), attempt):
                    attempt += 1
                    health.retried += 1
                    time.sleep(policy.delay(attempt))
                    record = _execute_point(runner, base, point)
                emit(point, record)
        elif pool is not None:
            _run_pool(pending, runner, base, pool, point_timeout, emit, health, policy)
        else:
            with WorkerPool(n_workers) as own:
                _run_pool(pending, runner, base, own, point_timeout, emit, health, policy)
    except KeyboardInterrupt:
        # Flush the health summary so the journal tells the whole story;
        # per-point records are already flushed as they land, which is what
        # makes ``resume=True`` after a Ctrl-C work.
        health.interrupted = True
        if journal is not None:
            append_jsonl({"health": asdict(health)}, journal)
        raise
    finally:
        if store is not None:
            store.flush_stats()
    return SweepRecords((results[p.index] for p in points), health)
