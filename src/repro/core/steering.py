"""Model-steered sweeps: spend cycle-accurate points only where they matter.

A latency–load curve is cheap everywhere except near its knee: the flat
region is predicted by the zero-cycle model (:mod:`repro.analytical`) to
within a few percent, while the knee — where latency bends toward the
saturation asymptote — is exactly where the queueing approximation is
weakest and measurement is worth its cost.  A steered sweep therefore:

1. builds the analytical model per axis combination and predicts the
   latency–load curve over the requested rates;
2. locates the curve's knee with :func:`find_knee` (Kneedle-style maximum
   sag below the first→last chord; a curve with no distinct bend knees at
   its last point);
3. runs a contiguous window of at most ``sim_fraction`` of the rates,
   centred on the predicted knee, through the real :func:`run_sweep`
   machinery — cache, retries, process pool, progress — **one sub-sweep
   per combination with the same axis coordinates**, so every simulated
   record is bit-identical to the one the dense sweep would produce
   (per-point seeds derive from the point's coordinates alone);
4. fills the remaining rates from the model and returns the merged records
   in dense canonical order, each tagged ``source: "simulated"`` or
   ``"analytical"``.

Non-steered sweeps never touch this module, and the steered path reuses
``run_sweep`` unchanged — the steering layer only decides *which* points
deserve cycles.  Resume is deliberately unsupported (the window is
recomputed per run); journal output is written once, after the sweep, in
the same ``{"index", "point", "record"}`` JSONL shape dense journals use.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..analytical.model import (
    DEFAULT_CAPACITY_FACTOR,
    AnalyticalModel,
    sweep_record,
)
from ..analysis.io import append_jsonl
from ..config import NetworkConfig
from .parallel import (
    SweepHealth,
    SweepRecords,
    WorkerPool,
    _jsonable,
    run_sweep,
    sweep_fingerprint,
)

__all__ = ["SteeringPlan", "find_knee", "steered_sweep"]


def find_knee(xs: Sequence[float], ys: Sequence[float], *, tolerance: float = 0.05) -> int:
    """Index of the knee of curve ``ys(xs)`` (Kneedle-style, clipping inf).

    Both series are min-max normalized; the knee is the point of maximum
    sag below the chord from the first to the last point.  Non-finite
    ``ys`` (saturated points) are clipped one span above the finite
    maximum so divergence registers as a bend, not a NaN.  A curve whose
    maximum sag stays under ``tolerance`` — linear ramps, concave-down
    growth, constants — has no distinct knee and returns the last index,
    so steering falls back to sampling the high-load end of the grid.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n = int(x.size)
    if n == 0:
        raise ValueError("need at least one point")
    if n < 3:
        return n - 1
    finite = np.isfinite(y)
    if not finite.any():
        return n - 1
    fmax = float(y[finite].max())
    fmin = float(y[finite].min())
    span = fmax - fmin
    yc = np.where(finite, y, fmax + (span if span > 0.0 else 1.0))
    xr = float(x.max() - x.min())
    yr = float(yc.max() - yc.min())
    if xr <= 0.0 or yr <= 0.0:
        return n - 1
    xn = (x - x.min()) / xr
    yn = (yc - yc.min()) / yr
    denom = xn[-1] - xn[0]
    if denom <= 0.0:
        return n - 1
    chord = yn[0] + (yn[-1] - yn[0]) * (xn - xn[0]) / denom
    sag = chord - yn
    if float(sag.max()) < tolerance:
        return n - 1
    return int(np.argmax(sag))


@dataclass(frozen=True)
class SteeringPlan:
    """How one axis combination was steered."""

    #: config-axis coordinates of the combination (empty for a pure
    #: rate sweep)
    overrides: Mapping[str, Any]
    #: the full rate grid, dense order
    rates: tuple[float, ...]
    #: the model's predicted mean latency per rate
    model_latency: tuple[float, ...]
    #: predicted saturation rate (flits/cycle/node)
    saturation_rate: float
    #: index into ``rates`` of the predicted knee
    knee_index: int
    #: indices that ran cycle-accurately (contiguous, centred on the knee)
    simulated_indices: tuple[int, ...]

    @property
    def knee_rate(self) -> float:
        return self.rates[self.knee_index]

    @property
    def simulated_fraction(self) -> float:
        return len(self.simulated_indices) / len(self.rates)


def _window(knee: int, total: int, budget: int) -> tuple[int, ...]:
    """A contiguous ``budget``-wide index window centred on ``knee``."""
    budget = max(1, min(budget, total))
    start = knee - (budget - 1) // 2
    start = max(0, min(start, total - budget))
    return tuple(range(start, start + budget))


def steered_sweep(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    runner: Callable[..., Mapping[str, Any]],
    *,
    rates: Sequence[float],
    rate_axis: str = "rate",
    sim_fraction: float = 0.5,
    min_simulated: int = 2,
    knee_tolerance: float = 0.05,
    capacity_factor: float = DEFAULT_CAPACITY_FACTOR,
    n_workers: int = 1,
    journal=None,
    progress=None,
    point_timeout: Optional[float] = None,
    max_retries: int = 2,
    cache=None,
) -> SweepRecords:
    """Run a knee-steered sweep over ``axes`` × ``rates``.

    Parameters mirror :func:`repro.core.parallel.run_sweep` (minus resume;
    the window is recomputed per run) plus the steering knobs:
    ``sim_fraction`` caps the share of rates simulated per combination
    (``min_simulated`` floors it so tiny grids still measure something),
    ``knee_tolerance``/``capacity_factor`` tune knee detection and the
    model.  The returned :class:`SweepRecords` holds the merged records in
    dense canonical order — simulated ones bit-identical to a dense
    ``run_sweep`` (modulo ``wall_seconds``), analytical ones tagged and
    NaN where the model has no answer — plus ``.plans``, one
    :class:`SteeringPlan` per combination.
    """
    if not 0.0 < sim_fraction <= 1.0:
        raise ValueError("sim_fraction must be in (0, 1]")
    if min_simulated < 1:
        raise ValueError("min_simulated must be >= 1")
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ValueError("rates must be non-empty")
    axes = dict(axes)
    names = list(axes)
    budget = max(min_simulated, int(len(rates) * sim_fraction))
    budget = min(budget, len(rates))
    health = SweepHealth()
    plans: list[SteeringPlan] = []
    records: list[dict[str, Any]] = []
    # Every combination's sub-sweep runs on one pool: forked once per
    # steered sweep, not once per combination.
    pool = WorkerPool(n_workers) if n_workers > 1 else None
    try:
        for combo in itertools.product(*(axes[name] for name in names)):
            overrides = dict(zip(names, combo))
            cfg = base.with_(**overrides)
            model = AnalyticalModel(cfg, capacity_factor=capacity_factor)
            curve = model.curve(rates)
            latencies = tuple(est.avg_latency for est in curve)
            knee = find_knee(rates, latencies, tolerance=knee_tolerance)
            simulated = _window(knee, len(rates), budget)
            plan = SteeringPlan(
                overrides=overrides,
                rates=rates,
                model_latency=latencies,
                saturation_rate=model.saturation_rate,
                knee_index=knee,
                simulated_indices=simulated,
            )
            plans.append(plan)
            # The sub-sweep pins this combination's coordinates as single-value
            # axes, so every point's derived seed and cache key are identical
            # to the dense sweep's — that is the bit-identity guarantee.
            sub = run_sweep(
                base,
                {name: (value,) for name, value in overrides.items()},
                runner,
                extra_axes={rate_axis: tuple(rates[i] for i in simulated)},
                n_workers=n_workers,
                progress=progress,
                point_timeout=point_timeout,
                max_retries=max_retries,
                cache=cache,
                pool=pool,
            )
            for field in (
                "ok",
                "failed",
                "retried",
                "timed_out",
                "stalled",
                "worker_deaths",
                "cache_hits",
                "cache_misses",
                "quarantined",
                "stale_results",
            ):
                setattr(health, field, getattr(health, field) + getattr(sub.health, field))
            by_rate = {rates[i]: rec for i, rec in zip(simulated, sub)}
            simulated_set = set(simulated)
            for i, rate in enumerate(rates):
                if i in simulated_set:
                    rec = dict(by_rate[rate])
                    rec["source"] = "simulated"
                else:
                    start = time.perf_counter()
                    rec = {**overrides, rate_axis: rate, **sweep_record(model, rate)}
                    rec["wall_seconds"] = time.perf_counter() - start
                    health.ok += 1
                records.append(rec)
    finally:
        if pool is not None:
            pool.close()
    health.total = len(records)
    if journal is not None:
        fingerprint = sweep_fingerprint(base, axes, {rate_axis: rates})
        open(journal, "w").close()
        append_jsonl(
            {
                "sweep": {
                    "fingerprint": fingerprint,
                    "total": len(records),
                    "steered": True,
                    "sim_fraction": sim_fraction,
                }
            },
            journal,
        )
        append_jsonl(
            (
                {
                    "index": index,
                    "point": _jsonable(
                        {k: rec[k] for k in (*names, rate_axis) if k in rec}
                    ),
                    "record": rec,
                }
                for index, rec in enumerate(records)
            ),
            journal,
        )
    out = SweepRecords(records, health)
    out.plans = plans
    return out
