"""Load sweeps, saturation detection and bottleneck attribution.

The serving question the paper's accelerator ultimately has to answer
is *"how much traffic can one card carry before latency collapses?"*.
:func:`sweep_offered_load` replays the same request population at a
ladder of offered loads, :func:`find_saturation` locates the knee
(first load whose goodput falls measurably short of what was offered),
and :func:`attribute_saturation` explains the knee twice over:

* **macro**: how the device spent its cycles at the knee (prefill vs
  decode vs idle) plus the cache-pressure counters (peak resident
  bytes against budget, preemptions, replayed steps);
* **micro**: the PR-5 stall taxonomy (:func:`repro.hw.introspect.
  classify_stalls`) run over the dominant phase's block program, naming
  the cycle-level cause (``load_starved``, ``dependency``, ...) that
  bounds the phase the device spends most of its time in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.serving.arrival import make_arrival_model
from repro.serving.request import synthesize_requests
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    ModeledExecutor,
    ServingConfig,
    ServingResult,
)
from repro.serving.slo import phase_stall_report

__all__ = [
    "LoadPoint",
    "ServingSweep",
    "sweep_offered_load",
    "find_saturation",
    "attribute_saturation",
    "render_sweep",
    "SweepDelta",
    "diff_sweeps",
    "render_sweep_delta",
]


@dataclass(frozen=True)
class LoadPoint:
    """One offered-load level of a sweep, fully aggregated."""

    offered_rps: float
    completed: int
    throughput_rps: float
    goodput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    queue_p95_ms: float
    preemptions: int
    replayed_steps: int
    peak_kv_bytes: int
    peak_queue_depth: int
    peak_batch: int
    device_cycles: int
    prefill_frac: float
    decode_frac: float
    idle_frac: float

    @classmethod
    def from_result(cls, offered_rps: float, result: ServingResult) -> "LoadPoint":
        span = max(result.device_end_cycles, 1)
        return cls(
            offered_rps=offered_rps,
            completed=len(result.completed),
            throughput_rps=result.throughput_rps,
            goodput_rps=result.goodput_rps,
            p50_ms=result.latency_quantile(0.50),
            p95_ms=result.latency_quantile(0.95),
            p99_ms=result.latency_quantile(0.99),
            queue_p95_ms=result.latency_quantile(0.95, which="queue"),
            preemptions=result.preemptions,
            replayed_steps=result.replayed_steps,
            peak_kv_bytes=result.peak_kv_bytes,
            peak_queue_depth=result.peak_queue_depth,
            peak_batch=result.peak_batch,
            device_cycles=result.device_end_cycles,
            prefill_frac=result.prefill_cycles_total / span,
            decode_frac=result.decode_cycles_total / span,
            idle_frac=result.idle_cycles_total / span,
        )


@dataclass
class ServingSweep:
    """A full latency-vs-load curve plus its saturation attribution."""

    config: ServingConfig
    arrival_kind: str
    num_requests: int
    seed: int
    points: list[LoadPoint]
    attribution: dict = field(default_factory=dict)

    @property
    def saturation_rps(self) -> float | None:
        return self.attribution.get("saturation_rps")


def sweep_offered_load(
    loads_rps: list[float],
    num_requests: int = 24,
    arrival_kind: str = "poisson",
    config: ServingConfig | None = None,
    seed: int = 0,
    executor: ModeledExecutor | None = None,
) -> ServingSweep:
    """Replay the same request population at each offered load.

    The token budgets and priorities are drawn once (same ``seed``), so
    the only thing that changes along the sweep is arrival spacing —
    the curve isolates load, not workload."""
    if not loads_rps:
        raise ValueError("need at least one offered load")
    for rate in loads_rps:
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"loads_rps must be finite and positive; got {rate}")
    if sorted(loads_rps) != list(loads_rps):
        raise ValueError("offered loads must be sorted ascending")
    config = config or ServingConfig()
    # One executor for every rate and the attribution: its prefill
    # report and iteration-cost memo carry across the whole ladder.
    executor = executor or ModeledExecutor(config)
    points: list[LoadPoint] = []
    for rate in loads_rps:
        arrival = make_arrival_model(arrival_kind, rate, seed=seed)
        requests = synthesize_requests(arrival, num_requests, seed=seed)
        sched = ContinuousBatchingScheduler(config, executor)
        result = sched.run(requests)
        points.append(LoadPoint.from_result(rate, result))
    sweep = ServingSweep(
        config=config,
        arrival_kind=arrival_kind,
        num_requests=num_requests,
        seed=seed,
        points=points,
    )
    sweep.attribution = attribute_saturation(sweep, executor)
    return sweep


def find_saturation(
    points: list[LoadPoint], goodput_ratio: float = 0.95
) -> LoadPoint | None:
    """First point whose goodput falls below ``goodput_ratio`` of the
    offered load — the knee of the latency-vs-load curve."""
    if not 0 < goodput_ratio <= 1:
        raise ValueError("goodput_ratio must be in (0, 1]")
    for point in points:
        if point.goodput_rps < goodput_ratio * point.offered_rps:
            return point
    return None


def attribute_saturation(
    sweep: ServingSweep, executor: ModeledExecutor | None = None
) -> dict:
    """Explain the saturation knee (or its absence) of a sweep.

    Returns a plain dict (bench-info friendly) with the macro split at
    the knee, the cache-pressure counters, and the stall-taxonomy
    verdict for the dominant device phase."""
    ex = executor or ModeledExecutor(sweep.config)
    knee = find_saturation(sweep.points)
    out: dict = {"saturated": knee is not None}
    point = knee or sweep.points[-1]
    out["at_rps"] = point.offered_rps
    if knee is not None:
        out["saturation_rps"] = knee.offered_rps

    # Macro: where did the device cycles go at (or nearest) the knee?
    out["prefill_frac"] = round(point.prefill_frac, 4)
    out["decode_frac"] = round(point.decode_frac, 4)
    out["idle_frac"] = round(point.idle_frac, 4)
    kv_budget = sweep.config.kv_budget_bytes
    if kv_budget is None:
        kv_budget = sweep.config.max_batch * ex.resident_bytes(sweep.config.s)
    kv_pressured = (
        point.preemptions > 0
        or (point.peak_queue_depth > 0 and point.peak_batch < sweep.config.max_batch
            and point.peak_kv_bytes > 0.8 * kv_budget)
    )
    if knee is None:
        bottleneck = "arrival_bound"
    elif kv_pressured:
        bottleneck = "kv_pressure"
    elif point.idle_frac > max(point.prefill_frac, point.decode_frac):
        # Goodput fell short of the offered rate while the device sat
        # mostly idle: the arrival draws (bursty/diurnal quiet spells)
        # never delivered the nominal load, so the knee is not a
        # device limit.
        bottleneck = "arrival_bound"
    elif point.prefill_frac >= point.decode_frac:
        bottleneck = "prefill_bound"
    else:
        bottleneck = "decode_bound"
    out["bottleneck"] = bottleneck

    # Micro: the stall taxonomy of the dominant phase's block program
    # (same program/label contract as the per-violation SLO drill-down).
    phase = "prefill" if point.prefill_frac >= point.decode_frac else "decode"
    label, report = phase_stall_report(
        ex.lm, phase, sweep.config.s, sweep.config.architecture
    )
    out["stall_program"] = label
    totals = report.totals(".psa")
    out["psa_dominant_cause"] = report.dominant_cause(".psa") or "none"
    out["psa_stall_cycles"] = {k: v for k, v in totals.items() if v > 0}
    return out


@dataclass
class SweepDelta:
    """The serving-side differential profile: two sweeps over the same
    offered-load ladder, compared point-for-point.

    ``points`` carries, per offered load, the candidate-minus-base
    deltas of the latency quantiles, goodput, and the exact integer
    device-cycle counters.  The knee movement comes straight from
    :func:`find_saturation` on each side; ``None`` means that side
    never saturated within the swept ladder.
    """

    base_desc: str
    cand_desc: str
    points: list[dict]
    base_saturation_rps: float | None
    cand_saturation_rps: float | None
    base_bottleneck: str
    cand_bottleneck: str

    @property
    def knee_moved(self) -> bool:
        return self.base_saturation_rps != self.cand_saturation_rps

    def as_dict(self) -> dict:
        return {
            "base": self.base_desc,
            "cand": self.cand_desc,
            "points": list(self.points),
            "saturation_rps": {
                "base": self.base_saturation_rps,
                "cand": self.cand_saturation_rps,
            },
            "bottleneck": {
                "base": self.base_bottleneck,
                "cand": self.cand_bottleneck,
            },
        }


def _describe(sweep: ServingSweep) -> str:
    cfg = sweep.config
    return (f"{cfg.architecture} s={cfg.s} batch<={cfg.max_batch} "
            f"slo={cfg.slo_ms:g}ms ({sweep.arrival_kind})")


def diff_sweeps(base: ServingSweep, cand: ServingSweep) -> SweepDelta:
    """Compare two sweeps point-for-point.

    Both sweeps must cover the same offered-load ladder (otherwise the
    per-point deltas would compare different traffic) — a mismatch is a
    usage error and raises ``ValueError``.
    """
    base_loads = [p.offered_rps for p in base.points]
    cand_loads = [p.offered_rps for p in cand.points]
    if base_loads != cand_loads:
        raise ValueError(
            f"sweeps cover different offered-load ladders: "
            f"{base_loads} vs {cand_loads}"
        )
    points = []
    for a, b in zip(base.points, cand.points):
        points.append({
            "offered_rps": a.offered_rps,
            "d_p50_ms": b.p50_ms - a.p50_ms,
            "d_p95_ms": b.p95_ms - a.p95_ms,
            "d_p99_ms": b.p99_ms - a.p99_ms,
            "d_goodput_rps": b.goodput_rps - a.goodput_rps,
            "d_completed": b.completed - a.completed,
            "d_device_cycles": b.device_cycles - a.device_cycles,
            "d_preemptions": b.preemptions - a.preemptions,
            "d_replayed_steps": b.replayed_steps - a.replayed_steps,
            "d_peak_kv_bytes": b.peak_kv_bytes - a.peak_kv_bytes,
        })
    base_knee = find_saturation(base.points)
    cand_knee = find_saturation(cand.points)
    return SweepDelta(
        base_desc=_describe(base),
        cand_desc=_describe(cand),
        points=points,
        base_saturation_rps=base_knee.offered_rps if base_knee else None,
        cand_saturation_rps=cand_knee.offered_rps if cand_knee else None,
        base_bottleneck=str(base.attribution.get("bottleneck", "?")),
        cand_bottleneck=str(cand.attribution.get("bottleneck", "?")),
    )


def render_sweep_delta(delta: SweepDelta) -> str:
    """Fixed-width table of per-load deltas plus the knee verdict."""
    lines = [
        f"serving diff: {delta.base_desc}  ->  {delta.cand_desc}",
        f"{'offered':>9} {'Δp50 ms':>10} {'Δp95 ms':>10} {'Δp99 ms':>10} "
        f"{'Δgoodput':>10} {'Δcycles':>14} {'Δpreempt':>9}",
    ]
    for p in delta.points:
        lines.append(
            f"{p['offered_rps']:>9.3f} {p['d_p50_ms']:>+10.1f} "
            f"{p['d_p95_ms']:>+10.1f} {p['d_p99_ms']:>+10.1f} "
            f"{p['d_goodput_rps']:>+10.3f} {p['d_device_cycles']:>+14,d} "
            f"{p['d_preemptions']:>+9d}"
        )

    def _knee(rps: float | None) -> str:
        return f"{rps:g} req/s" if rps is not None else "none (in ladder)"

    lines.append(
        f"saturation knee: {_knee(delta.base_saturation_rps)} -> "
        f"{_knee(delta.cand_saturation_rps)}"
        + ("  [moved]" if delta.knee_moved else "  [unchanged]")
    )
    lines.append(
        f"bottleneck: {delta.base_bottleneck} -> {delta.cand_bottleneck}"
    )
    return "\n".join(lines)


def render_sweep(sweep: ServingSweep) -> str:
    """A fixed-width latency-vs-load table plus the attribution verdict."""
    lines = [
        f"serving sweep: {sweep.arrival_kind} arrivals, "
        f"{sweep.num_requests} requests/level, arch {sweep.config.architecture}, "
        f"batch<={sweep.config.max_batch}",
        f"{'offered':>9} {'goodput':>9} {'p50 ms':>10} {'p95 ms':>10} "
        f"{'p99 ms':>10} {'preempt':>8} {'peak kv':>12}",
    ]
    for p in sweep.points:
        lines.append(
            f"{p.offered_rps:>9.3f} {p.goodput_rps:>9.3f} {p.p50_ms:>10.1f} "
            f"{p.p95_ms:>10.1f} {p.p99_ms:>10.1f} {p.preemptions:>8d} "
            f"{p.peak_kv_bytes:>12d}"
        )
    att = sweep.attribution
    if att.get("saturated"):
        lines.append(
            f"saturates at {att['saturation_rps']:.3f} req/s: "
            f"{att['bottleneck']} (prefill {att['prefill_frac']:.0%} / "
            f"decode {att['decode_frac']:.0%} / idle {att['idle_frac']:.0%})"
        )
    else:
        lines.append(
            f"no saturation up to {att['at_rps']:.3f} req/s "
            f"(idle {att['idle_frac']:.0%})"
        )
    lines.append(
        f"stall taxonomy [{att['stall_program']}]: PSA lanes dominated by "
        f"{att['psa_dominant_cause']}"
    )
    return "\n".join(lines)
