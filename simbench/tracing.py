"""Traced-run shim: wall-clock spans around the program's public layer
entry points, installed from outside the program.

Each layer of the simulator is named after the module it times and is
entered through a fixed set of public functions or methods
(:data:`LAYERS`).  :meth:`Tracer.install` replaces every *binding* of those
entry points — the defining module's attribute, every ``from … import``
copy in another ``repro`` module, and the class attribute for methods —
with a wrapper that records a span while the tracer is active.  Outside
the timed region (input generation, oracles) the wrappers pass straight
through.

A layer's self time is its span's duration minus the durations of the
traced spans nested directly inside it; its inclusive time counts only
the outermost span of that layer, so recursion through the same layer
is not counted twice.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

#: Its ``ServingResult`` carries the serving layer's work counts.
SERVING_RUN = ("repro.serving.scheduler", "ContinuousBatchingScheduler.run")

#: layer -> entry points, each ``(module, attribute)`` for a function or
#: ``(module, "Class.method")`` for a method.  ``hw.program.lower`` is
#: filled at install time from ``lowering_cache_info()``.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "frontend": (("repro.asr.pipeline", "HostPreprocessor.__call__"),),
    "hw.program.lower": (),
    "hw.program.cost": (
        ("repro.hw.program", "program_block_work"),
        ("repro.hw.program", "block_compute_cycles"),
    ),
    "hw.controller": (
        ("repro.hw.controller", "LatencyModel.decode_iteration_cycles"),
        ("repro.hw.controller", "LatencyModel.latency_report"),
        ("repro.hw.controller", "LatencyModel.autoregressive_report"),
    ),
    "hw.scheduler": (
        ("repro.hw.program", "schedule_program"),
        ("repro.hw.scheduler", "schedule"),
    ),
    "hw.program.exec": (("repro.hw.program", "execute_program"),),
    "hw.kernels": tuple(
        ("repro.hw.kernels", f"mm{i}") for i in range(1, 7)
    ),
    "hw.nonlinear": (
        ("repro.hw.nonlinear", "scale_scores"),
        ("repro.hw.nonlinear", "softmax_unit"),
        ("repro.hw.nonlinear", "relu_unit"),
        ("repro.hw.nonlinear", "bias_unit"),
        ("repro.hw.nonlinear", "add_norm_unit"),
    ),
    "hw.accelerator": (
        ("repro.hw.accelerator", "TransformerAccelerator.decode_session"),
        ("repro.hw.accelerator", "HwDecodeSession.step"),
        ("repro.hw.accelerator", "step_sessions"),
    ),
    "hw.passes": (("repro.hw.passes", "PassPipeline.apply"),),
    "hw.introspect": (("repro.hw.introspect", "classify_stalls"),),
    "serving": (SERVING_RUN,),
    "serving.analysis": (("repro.serving.analysis", "attribute_saturation"),),
    "decoding": (("repro.decoding.greedy", "greedy_decode"),),
}

#: Lowering entry points live in one of these modules.
LOWERING_MODULES = ("repro.hw.program", "repro.hw.passes")

#: Entry points whose calls are per-token decode steps.
STEP_ENTRIES = {"HwDecodeSession.step", "step_sessions"}

#: Counted, not timed: one call per PSA stripe.
MATMUL_ENTRY = ("repro.hw.systolic", "SystolicArray.matmul")


def lowering_functions() -> dict[str, object]:
    """name -> the ``lru_cache``'d lowering object for every entry that
    ``lowering_cache_info()`` lists; raises if one cannot be found, so a
    new lowering cache can never silently escape clearing or tracing."""
    import importlib

    from repro.hw.program import lowering_cache_info

    modules = [importlib.import_module(m) for m in LOWERING_MODULES]
    found = {}
    for name in lowering_cache_info():
        for module in modules:
            fn = getattr(module, name, None)
            if fn is not None and hasattr(fn, "cache_clear"):
                found[name] = fn
                break
        else:
            raise RuntimeError(
                f"lowering cache '{name}' is not a clearable attribute of "
                f"{', '.join(LOWERING_MODULES)}"
            )
    return found


class Tracer:
    """Span aggregation per layer plus the counters the layers expose."""

    def __init__(self) -> None:
        self.active = False
        self.layers = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, incl, self
        self.root_s = 0.0
        self.counts: Counter[str] = Counter()
        self.step_ms: list[float] = []
        self.min_self_s = 0.0
        self._stack: list[list] = []  # [child_s, is_step]
        self._depth: Counter[str] = Counter()
        self._cost_keys: dict[tuple[int, object], tuple] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans
    def _span(self, layer: str, fn, is_step: bool):
        stack, depth, stats = self._stack, self._depth, self.layers[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nested_step = is_step and any(f[1] for f in stack)
            frame = [0.0, is_step]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[layer] -= 1
                own = dur - frame[0]
                self.min_self_s = min(self.min_self_s, own)
                stats[0] += 1
                stats[2] += own
                if depth[layer] == 0:
                    stats[1] += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
                if is_step and not nested_step:
                    members = len(args[0]) if fn.__name__ == "step_sessions" else 1
                    self.step_ms.extend([dur * 1e3 / members] * members)

        return wrapper

    def _count_cost_key(self, fn):
        keys, counts = self._cost_keys, self.counts

        @functools.wraps(fn)
        def wrapper(program, block, *args, **kwargs):
            if self.active:
                counts["hw.program.cost.block_compute_calls"] += 1
                key = (id(program), block if isinstance(block, str) else id(block))
                # Keep the objects alive so their ids stay unique.
                keys.setdefault(key, (program, block))
            return fn(program, block, *args, **kwargs)

        return wrapper

    def _count_serving(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                counts["serving.decode_iterations"] += result.decode_iterations
                counts["serving.replayed_steps"] += result.replayed_steps
                counts["serving.decode_steps"] += result.replayed_steps + sum(
                    r.decoded_tokens for r in result.records
                )
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------ installing
    def _rebind(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, module_name: str, entry: str, make) -> None:
        import importlib

        module = importlib.import_module(module_name)
        if "." in entry:
            cls_name, attr = entry.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._rebind(cls, attr, original, make(original))
            return
        original = getattr(module, entry)
        wrapped = make(original)
        # ``from … import`` copies the name: rebind every copy.
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, name, original, wrapped)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{module_name}.{entry} has no binding to wrap")

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` undoes it."""
        entries = dict(LAYERS)
        entries["hw.program.lower"] = tuple(
            (fn.__module__, name) for name, fn in lowering_functions().items()
        )
        # Counting wrappers go on first so the span wrappers enclose them.
        self._wrap("repro.hw.program", "block_compute_cycles", self._count_cost_key)
        self._wrap(*MATMUL_ENTRY, lambda fn: self._count("hw.systolic.matmul_calls", fn))
        self._wrap(*SERVING_RUN, self._count_serving)
        for layer, points in entries.items():
            for module_name, entry in points:
                is_step = entry in STEP_ENTRIES
                self._wrap(
                    module_name,
                    entry,
                    lambda fn, layer=layer, is_step=is_step: self._span(
                        layer, fn, is_step
                    ),
                )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --------------------------------------------------------- results
    def distinct_cost_ratio(self) -> float:
        """Distinct (program, block) keys over ``block_compute_cycles``
        calls: the share of cost-model calls that computed something new."""
        calls = self.counts["hw.program.cost.block_compute_calls"]
        return len(self._cost_keys) / calls if calls else 0.0

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, (calls, incl, own) in self.layers.items():
            out[f"{layer}.calls"] = float(calls)
            out[f"{layer}.ms"] = incl * 1e3
            out[f"{layer}.self_ms"] = own * 1e3
        return out

    def step_quantiles(self) -> tuple[float, float]:
        if len(self.step_ms) < 2:
            only = self.step_ms[0] if self.step_ms else 0.0
            return only, only
        cuts = statistics.quantiles(self.step_ms, n=100, method="inclusive")
        return statistics.median(self.step_ms), cuts[98]
