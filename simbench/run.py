"""Benchmark of the ASR accelerator simulator: host time and simulated time.

Run from the repository root::

    python3 simbench/run.py --workload transcribe --seed 1 --seconds 20 --trace 0
    python3 simbench/run.py --report --seed 1 --seconds 20

One workload runs per process, single-threaded, with BLAS pinned to one
thread, closed loop with one client.  The run's op set is a function of
``--seed`` and ``--seconds`` only (see ``Workload.op_seconds``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics of an
untraced run, its host times scaled toward a fixed reference speed by a
calibration loop run around every timed interval (see ``CAL_EXPONENT``);
with ``--trace 1`` it carries the per-layer metrics of a traced pass
over the same ops, checked against an untraced pass.
``--report`` runs every workload both ways in child processes and prints
one table.  The last stdout line is always one JSON object.
"""

import os

# Pinned before NumPy can load OpenBLAS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPS = 3
#: Per-token step samples the traced pass aims for ...
STEP_SAMPLES = 1000
#: ... within this multiple of --seconds of traced host time.
TRACE_TIME_FACTOR = 4.0

#: A shared host's speed moves in plateaus of seconds to minutes, up to
#: 1.5x apart, more than any in-run median removes.  So every timed
#: interval is bracketed by a calibration loop (fixed work, no program
#: code: NumPy on small matrices like the kernels, dict lookups like the
#: cost model), and a gated host time is the measured time times
#: (CAL_REF_MS / the loop's pass time around it) ** CAL_EXPONENT.  The raw
#: times are printed beside it.
CAL_SIZE = 64
CAL_ITERS = 80
CAL_KEYS = 100_000
CAL_LOOKUPS = 25_000
#: A loop timing is the median of this many short passes, so a transient
#: stall, or the pass that refills the caches an op evicted, is ignored.
CAL_PASSES = 9
#: Reference pass time: about the fastest median pass time seen on the
#: host that defined the benchmark (2-vCPU 2.1 GHz Xeon VM, one BLAS
#: thread).  A fixed constant; it only sets the scale.
CAL_REF_MS = 6.0
#: How far the loop's slowdown is applied.  Across the slow plateaus of
#: that host, an op slowed by 0.45 to 0.9 times as much (log-log) as the
#: loop did, depending on the plateau; over ten-seed runs the spread of
#: op_p50_ms was at most 0.18 with the exponent 0.5, against 0.28 with 0
#: (raw time) and 0.29 with 1 (full scaling).
CAL_EXPONENT = 0.5

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "sim_busy_mcycles_per_s": "Mcycle/s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "sim_busy_cycles": "cycles",
}


@dataclass
class Op:
    index: int
    ms: float
    check: object  # workloads.OpCheck, or None when the op raised
    error: str | None
    lower_hits: int = 0
    lower_misses: int = 0
    #: (CAL_REF_MS / the calibration loop's time around the op) ** CAL_EXPONENT
    scale: float = 1.0

    @property
    def scaled_ms(self) -> float:
        return self.ms * self.scale


# ------------------------------------------------------------ measuring
class Calibration:
    """The calibration loop and the speed scale it measures."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((CAL_SIZE, CAL_SIZE))
        self.table = {i: (7 * i) % 1000 for i in range(CAL_KEYS)}
        self.keys = [int(k) for k in rng.integers(0, CAL_KEYS, CAL_LOOKUPS)]
        self.loop_ms()  # the first call pays for lazy BLAS set-up
        self.last_ms = self.loop_ms()

    def loop_ms(self) -> float:
        return statistics.median(self._pass_ms() for _ in range(CAL_PASSES))

    def _pass_ms(self) -> float:
        np, a, b, table = self.np, self.a, self.a, self.table
        start = time.perf_counter()
        for _ in range(CAL_ITERS):
            b = np.tanh(a @ b * 0.01) + a
        total = 0
        for key in self.keys:
            total += table[key]
        return (time.perf_counter() - start) * 1e3

    def timed(self, fn) -> tuple[float, float]:
        """(seconds ``fn()`` took, its speed scale).  The loop timing
        after one interval is also the timing before the next."""
        before = self.last_ms
        start = time.perf_counter()
        fn()
        seconds = time.perf_counter() - start
        self.last_ms = self.loop_ms()
        return seconds, (2.0 * CAL_REF_MS / (before + self.last_ms)) ** CAL_EXPONENT


@functools.cache
def calibration() -> Calibration:
    return Calibration()


def import_probe(modules: tuple[str, ...]) -> None:
    """A fresh interpreter imports the workload's modules."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        + "; ".join(f"import {m}" for m in modules)
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def clear_program_caches() -> None:
    """Empty the A4 memo and every lowering cache, so a set-up rep
    starts as cold as a fresh process."""
    from repro.hw.dse import synthesize_a4

    from tracing import lowering_functions

    synthesize_a4.cache_clear()
    for fn in lowering_functions().values():
        fn.cache_clear()


def measure_setup(wl) -> tuple[float, float, float]:
    """(median import seconds, median program set-up seconds, and the
    sum of both scaled by the calibration)."""
    cal = calibration()
    imports = [cal.timed(lambda: import_probe(wl.modules)) for _ in range(SETUP_REPS)]

    def program_setup() -> None:
        wl.setup()
        wl.warmup()

    program = []
    for _ in range(SETUP_REPS):
        clear_program_caches()
        program.append(cal.timed(program_setup))
    return (
        statistics.median(t for t, _ in imports),
        statistics.median(t for t, _ in program),
        statistics.median(t * k for t, k in imports)
        + statistics.median(t * k for t, k in program),
    )


def run_op(wl, index: int, tracer=None) -> Op:
    from repro.hw.program import lowering_cache_info

    inp = wl.make_input(index)
    try:
        wl.before_op()
    except RuntimeError as exc:
        return Op(index, 0.0, None, f"before op: {exc}")
    if tracer is not None:
        info_before = lowering_cache_info()
        tracer.active = True
    out, error = None, None

    def timed_op() -> None:
        nonlocal out, error
        try:
            out = wl.run(inp)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"

    seconds, scale = calibration().timed(timed_op)
    op = Op(index, seconds * 1e3, None, error, scale=scale)
    if tracer is not None:
        tracer.active = False
        info_after = lowering_cache_info()
        for name, after in info_after.items():
            before = info_before[name]
            op.lower_hits += after.hits - before.hits
            op.lower_misses += after.misses - before.misses
    if error is None:
        try:
            op.check = wl.check(inp, out)
        except Exception as exc:  # an oracle that cannot judge fails the op
            op.error = f"check raised {type(exc).__name__}: {exc}"
        else:
            if not op.check.ok:
                op.error = op.check.reason
    if op.error:
        print(f"op {index} failed: {op.error}", file=sys.stderr)
    return op


def end_to_end(ops: list[Op], setup_s: float) -> dict[str, float]:
    """The gated metrics; host times scaled by the calibration."""
    busy = sum(op.check.busy_cycles for op in ops if op.check)
    # Per-op rates, so ops of unequal simulated work weigh alike.
    rates = [op.check.busy_cycles / op.scaled_ms / 1e3 for op in ops if op.check]
    failed = sum(1 for op in ops if op.error)
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(op.scaled_ms for op in ops),
        "sim_busy_mcycles_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - failed / len(ops),
        "sim_busy_cycles": float(busy),
    }


def side_metrics(ops: list[Op]) -> dict[str, float]:
    """Workload-specific end-to-end figures, printed but not gated."""
    checked = [op.check for op in ops if op.check]
    wall_s = sum(op.ms for op in ops) / 1e3
    out: dict[str, float] = {
        "wall_s": wall_s,
        "raw_op_p50_ms": statistics.median(op.ms for op in ops),
        "speed_scale_p50": statistics.median(op.scale for op in ops),
        "error_rate": sum(1 for op in ops if op.error) / len(ops),
    }
    tokens = sum(c.tokens for c in checked)
    if tokens:
        out["tokens_per_s"] = tokens / wall_s
    if any("preemptions" in c.info for c in checked):
        out["preemptions"] = sum(c.info.get("preemptions", 0) for c in checked)
    e2e = [c.info["sim_e2e_ms"] for c in checked if "sim_e2e_ms" in c.info]
    if e2e:
        out["sim_e2e_ms"] = statistics.median(e2e)
    rps = [c.info["max_rps_at_slo"] for c in checked if "max_rps_at_slo" in c.info]
    if rps:
        out["sim_max_rps_at_slo"] = statistics.median(rps)
    return out


# --------------------------------------------------------------- tracing
def traced_run(wl, seconds: float) -> tuple[dict[str, float], list[Op], list[str]]:
    """Untraced pass, then a traced pass over the same ops (extended
    with further ops until enough decode steps are sampled).  Returns
    the per-layer metrics, every op run, and any check that failed."""
    from tracing import Tracer

    n = wl.num_ops(seconds)
    untraced = [run_op(wl, i) for i in range(n)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(wl, i, tracer) for i in range(n)]
        index = n
        while (
            0 < len(tracer.step_ms) < STEP_SAMPLES
            and sum(op.ms for op in traced) / 1e3 < TRACE_TIME_FACTOR * seconds
        ):
            traced.append(run_op(wl, index, tracer))
            index += 1
    finally:
        tracer.uninstall()

    problems = []
    for u, t in zip(untraced, traced):
        if (u.error is None) != (t.error is None) or (
            u.check and t.check and u.check.identity != t.check.identity
        ):
            problems.append(f"op {u.index}: traced result differs from untraced")
    traced_wall_ms = sum(op.ms for op in traced)
    self_ms = sum(own for _, _, own in tracer.layers.values()) * 1e3
    untraced_ms = traced_wall_ms - self_ms
    if abs(self_ms - tracer.root_s * 1e3) > 1e-6 * max(traced_wall_ms, 1.0):
        problems.append("sum of self times differs from the root spans' time")
    if tracer.min_self_s < -1e-6 or untraced_ms < -1e-3:
        problems.append("a span's children outlast it")

    hits = sum(op.lower_hits for op in traced)
    misses = sum(op.lower_misses for op in traced)
    decode_steps = tracer.counts["serving.decode_steps"]
    p50, p99 = tracer.step_quantiles()
    metrics = tracer.layer_metrics()
    metrics.update({
        "hw.program.lower.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "hw.program.lower.misses": float(misses),
        "hw.program.cost.distinct_ratio": tracer.distinct_cost_ratio(),
        "hw.systolic.matmul_calls": float(tracer.counts["hw.systolic.matmul_calls"]),
        "hw.accelerator.steps": float(len(tracer.step_ms)),
        "hw.accelerator.step_p50_ms": p50,
        "hw.accelerator.step_p99_ms": p99,
        "serving.decode_iterations": float(tracer.counts["serving.decode_iterations"]),
        "serving.replay_ratio": (
            tracer.counts["serving.replayed_steps"] / decode_steps if decode_steps else 0.0
        ),
        "trace.wall_ms": traced_wall_ms,
        "trace.untraced_ms": untraced_ms,
        "trace.overhead_pct": 100.0
        * (sum(op.ms for op in traced[:n]) / sum(op.ms for op in untraced) - 1.0),
    })
    return metrics, untraced + traced, problems


def per_layer_units() -> dict[str, str]:
    from tracing import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.ms"] = "ms"
        units[f"{layer}.self_ms"] = "ms"
    units.update({
        "hw.program.lower.hit_ratio": "fraction",
        "hw.program.lower.misses": "count",
        "hw.program.cost.distinct_ratio": "fraction",
        "hw.systolic.matmul_calls": "count",
        "hw.accelerator.steps": "count",
        "hw.accelerator.step_p50_ms": "ms",
        "hw.accelerator.step_p99_ms": "ms",
        "serving.decode_iterations": "count",
        "serving.replay_ratio": "fraction",
        "trace.wall_ms": "ms",
        "trace.untraced_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


# --------------------------------------------------------------- output
def environment() -> str:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas} blas_threads={BLAS_THREADS}"
    )


def print_layers(metrics: dict[str, float]) -> None:
    from tracing import LAYERS

    wall = metrics["trace.wall_ms"]
    print(f"  {'layer':<20}{'calls':>10}{'ms':>12}{'self_ms':>12}{'self %':>8}")
    for layer in LAYERS:
        own = metrics[f"{layer}.self_ms"]
        print(
            f"  {layer:<20}{metrics[f'{layer}.calls']:>10.0f}"
            f"{metrics[f'{layer}.ms']:>12.1f}{own:>12.1f}"
            f"{100 * own / wall if wall else 0.0:>8.1f}"
        )
    units = per_layer_units()
    for name, value in metrics.items():
        if not name.endswith((".calls", ".ms", ".self_ms")) or name.startswith("trace."):
            print(f"  {name:<36}{value:>14.4f} {units[name]}")


def run_workload(args) -> dict:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    print(f"simbench workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env: {environment()}")
    import_s, program_s, setup_s = measure_setup(wl)
    if args.trace:
        metrics, ops, problems = traced_run(wl, args.seconds)
        print(f"traced: {len(ops)} ops (untraced pass, then traced pass)")
        print_layers(metrics)
        for problem in problems:
            print(f"trace check failed: {problem}", file=sys.stderr)
    else:
        ops = [run_op(wl, i) for i in range(wl.num_ops(args.seconds))]
        metrics = end_to_end(ops, setup_s)
        problems = []
        print(f"ops: {len(ops)}; set-up = imports {import_s:.3f} s + program "
              f"{program_s:.3f} s (medians of {SETUP_REPS}, as measured)")
        print(f"gated host times are scaled by (calibration loop {CAL_REF_MS} ms "
              f"/ measured) ** {CAL_EXPONENT}")
        for name, value in metrics.items():
            note = f"  (median of {len(ops)} ops)" if name == "op_p50_ms" else ""
            print(f"  {name:<26}{value:>18.4f} {E2E_UNITS[name]}{note}")
        for name, value in side_metrics(ops).items():
            print(f"  {name:<26}{value:>18.4f}  (not gated)")
    failed = sum(1 for op in ops if op.error)
    units = per_layer_units() if args.trace else E2E_UNITS
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_report(args) -> dict:
    """Every workload untraced and traced, each in its own process."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(trace)],
                capture_output=True, text=True, check=True,
            )
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            if trace:
                print(f"== {name}: per-layer (traced run)")
                print("\n".join(proc.stdout.splitlines()[3:-1]))
    names = list(workloads.WORKLOADS)
    print(f"== end-to-end (untraced runs), seed={args.seed} seconds={args.seconds}")
    print(f"  {'metric':<26}" + "".join(f"{n:>18}" for n in names))
    for metric, unit in E2E_UNITS.items():
        row = "".join(
            f"{results[n, 0]['metrics'][metric]['value']:>18.4f}" for n in names
        )
        print(f"  {metric:<26}{row} {unit}")
    row = "".join(
        f"{results[n, 0]['attempted']:>14}/{results[n, 0]['failed']}".ljust(18)
        for n in names
    )
    print(f"  {'ops attempted/failed':<26}{row}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{n}.op_p50_ms": results[n, 0]["metrics"]["op_p50_ms"] for n in names
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    import workloads

    if args.report:
        result = run_report(args)
    elif args.workload in workloads.WORKLOADS:
        result = run_workload(args)
    else:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
