"""The three benchmark workloads, driven through the program's public API.

Every workload makes its inputs from the benchmark seed (the program
only ever sees the generated waveforms, features or requests), runs one
*op* per timed call, and checks each op's result with an oracle outside
the timed region.  ``check`` returns an :class:`OpCheck` whose
``identity`` must repeat exactly for the same input, in traced and
untraced runs alike.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

#: Weights are part of the program, not of the input: one fixed seed.
WEIGHT_SEED = 0
#: Hardware sequence length and schedule used by every workload.
HW_SEQ_LEN = 32
ARCH = "A3"


def op_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run (-1 is the warm-up)."""
    return seed * 100_003 + index + 1_000


@dataclass
class OpCheck:
    """Oracle verdict and the simulated quantities of one op."""

    ok: bool
    #: Simulated device-busy (prefill + decode) cycles the op produced.
    busy_cycles: int
    #: Tokens the op decoded through the functional fabric (0 if none).
    tokens: int = 0
    #: Everything that must repeat exactly for the same input.
    identity: tuple = ()
    info: dict = field(default_factory=dict)
    reason: str = ""


class Workload:
    """One seeded workload: inputs, set-up, the timed op and its oracle."""

    name = ""
    #: Modules the import probe loads (the set-up's import share).
    modules: tuple[str, ...] = ()
    #: Host seconds per op, oracle and calibration included, on a 2-vCPU
    #: x86 VM with one BLAS thread in its slower plateaus, at the commit
    #: that defined the benchmark.  A run holds round(seconds / op_seconds)
    #: ops, but at least MIN_OPS, so its op set is a function of --seed and
    #: --seconds only, never of host speed.
    op_seconds = 1.0
    #: A median of three ops rejects one outlier; one of two cannot.
    MIN_OPS = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        for module in self.modules:
            importlib.import_module(module)

    def num_ops(self, seconds: float) -> int:
        return max(self.MIN_OPS, round(seconds / self.op_seconds))

    def setup(self) -> None:
        """Weight init and program objects; repeated per set-up rep."""

    def warmup(self) -> None:
        self.run(self.make_input(-1))

    def before_op(self) -> None:
        """Untimed state preparation right before each timed op."""

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> OpCheck:
        raise NotImplementedError


def _teacher_forced_argmax(golden, features, prefix) -> "list[int]":
    """Argmax of the golden model at each position of ``prefix``."""
    import numpy as np

    log_probs = golden.log_probs(features, np.asarray(prefix, dtype=np.int64))
    return [int(i) for i in log_probs.argmax(axis=-1)]


class Transcribe(Workload):
    """One 2-3 word synthetic utterance through ``AsrPipeline.transcribe``
    (greedy, full 12/6 model, s=32, A3): the paper's E2E flow, dominated
    by kernels, program execution and per-token accelerator steps."""

    name = "transcribe"
    modules = (
        "numpy",
        "repro.asr.dataset",
        "repro.asr.pipeline",
        "repro.model.params",
        "repro.model.transformer",
    )
    op_seconds = 1.55

    def setup(self) -> None:
        from repro.asr.pipeline import AsrPipeline
        from repro.model.params import init_transformer_params
        from repro.model.transformer import Transformer

        params = init_transformer_params(seed=WEIGHT_SEED)
        self.pipeline = AsrPipeline(
            params, hw_seq_len=HW_SEQ_LEN, architecture=ARCH
        )
        self.golden = Transformer(params)

    def make_input(self, index: int):
        from repro.asr.dataset import LibriSpeechLikeDataset

        # >= 2 words: a 1-word utterance can be shorter than the
        # subsampler's minimum input.
        utt = LibriSpeechLikeDataset(seed=op_seed(self.seed, index)).generate(
            1, min_words=2, max_words=3
        )[0]
        return utt.waveform

    def run(self, inp):
        return self.pipeline.transcribe(inp)

    def check(self, inp, out) -> OpCheck:
        vocab = self.pipeline.vocab
        tokens = [int(t) for t in out.tokens]
        features = self.pipeline.preprocessor(inp)
        pred = _teacher_forced_argmax(
            self.golden, features, [vocab.sos_id] + tokens
        )
        ok = pred[: len(tokens)] == tokens
        if len(tokens) < self.pipeline.max_output_chars:
            ok = ok and pred[len(tokens)] == vocab.eos_id
        busy = (
            out.accelerator_report.total_cycles + out.decode_report.total_cycles
        )
        return OpCheck(
            ok=ok,
            busy_cycles=busy,
            tokens=len(tokens),
            identity=(tuple(tokens), busy, out.e2e_ms),
            info={"sim_e2e_ms": out.e2e_ms},
            reason="" if ok else "tokens differ from the golden model's argmax",
        )


class ServeSweep(Workload):
    """One ``sweep_offered_load`` call: the same 24-request population
    (Poisson, A3, s=32, max_batch 4, SLO 1500 ms) replayed at each rate
    of a ladder across the saturation knee, plus its saturation
    attribution.  Host time goes mostly to the cycle cost model; no
    kernel runs.  Arrivals are open loop in simulated time."""

    name = "serve_sweep"
    modules = ("repro.serving",)
    LADDER = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    NUM_REQUESTS = 24
    SLO_MS = 1500.0
    op_seconds = 1.6

    def setup(self) -> None:
        from repro.serving import ServingConfig

        self.config = ServingConfig(
            s=HW_SEQ_LEN, architecture=ARCH, max_batch=4, slo_ms=self.SLO_MS
        )

    def make_input(self, index: int):
        return op_seed(self.seed, index)

    def run(self, inp):
        from repro.serving import sweep_offered_load

        return sweep_offered_load(
            list(self.LADDER),
            num_requests=self.NUM_REQUESTS,
            arrival_kind="poisson",
            config=self.config,
            seed=inp,
        )

    def check(self, inp, out) -> OpCheck:
        reasons, busy, max_rps = [], 0, 0.0
        if [p.offered_rps for p in out.points] != list(self.LADDER):
            reasons.append("the sweep skipped a rate")
        for point in out.points:
            span = point.device_cycles
            # The shares are exact integer cycle counts over span, each
            # correctly rounded, so they sum to 1 within 0.5 / span only
            # if prefill + decode + idle == device_end_cycles exactly.
            shares = point.prefill_frac + point.decode_frac + point.idle_frac
            if abs(shares - 1.0) >= 0.5 / span:
                reasons.append(
                    f"{point.offered_rps} rps: prefill + decode + idle "
                    "!= device_end_cycles"
                )
            # No request can be rejected (the config does not reject
            # oversized requests; it raises), so all must complete.
            if point.completed != self.NUM_REQUESTS:
                reasons.append(f"{point.offered_rps} rps: a request did not complete")
            busy += round((point.prefill_frac + point.decode_frac) * span)
            # p95 stands in for p90: LoadPoint keeps p50/p95/p99 only.
            if point.completed == self.NUM_REQUESTS and point.p95_ms <= self.SLO_MS:
                max_rps = max(max_rps, point.offered_rps)
        return OpCheck(
            ok=not reasons,
            busy_cycles=busy,
            identity=(tuple(out.points), busy),
            info={
                "max_rps_at_slo": max_rps,
                "preemptions": sum(p.preemptions for p in out.points),
            },
            reason="; ".join(reasons),
        )


class CompileA4(Workload):
    """One cold ``synthesize_a4(s=32)``: the 24-candidate pass search.
    Every op clears the A4 memo and every lowering cache first, so the
    lowering layer runs on its miss path; no kernel and no serving code
    runs.  The op has no random input, so the seed changes nothing."""

    name = "compile_a4"
    modules = ("repro.hw.dse", "repro.hw.passes", "repro.hw.program")
    op_seconds = 10.0

    def setup(self) -> None:
        from repro.config import CalibrationConfig

        from tracing import lowering_functions

        # Taken after repro.hw.passes is imported, so the optimized
        # lowerings it registers are included.
        self.lowerings = lowering_functions()
        self.overhead = CalibrationConfig().block_overhead_cycles

    def warmup(self) -> None:
        """None: every op is cold by definition."""

    def _misses(self) -> int:
        from repro.hw.program import lowering_cache_info

        return sum(info.misses for info in lowering_cache_info().values())

    def before_op(self) -> None:
        from repro.hw.dse import synthesize_a4
        from repro.hw.program import lowering_cache_info

        synthesize_a4.cache_clear()
        for fn in self.lowerings.values():
            fn.cache_clear()
        warm = {n: i.currsize for n, i in lowering_cache_info().items() if i.currsize}
        if warm or synthesize_a4.cache_info().currsize:
            raise RuntimeError(f"caches survived clearing: {warm}")
        self.misses_before = self._misses()

    def make_input(self, index: int):
        return HW_SEQ_LEN

    def run(self, inp):
        from repro.hw.dse import synthesize_a4

        return synthesize_a4(s=inp, architecture=ARCH)

    def check(self, inp, out) -> OpCheck:
        from repro.hw.program import schedule_program

        cold = self._misses() > self.misses_before
        beats = out.optimized_cycles < out.baseline_cycles
        rescheduled = schedule_program(
            out.program, out.architecture, self.overhead
        ).total_cycles
        reproduced = rescheduled == out.optimized_cycles
        reasons = [
            text
            for good, text in (
                (cold, "no lowering miss: the op ran warm"),
                (beats, "A4 does not strictly beat A3"),
                (reproduced, "rescheduling the winner gives other cycles"),
            )
            if not good
        ]
        return OpCheck(
            ok=not reasons,
            busy_cycles=out.optimized_cycles,
            identity=(
                out.optimized_cycles,
                out.baseline_cycles,
                tuple(out.pipeline.names),
            ),
            reason="; ".join(reasons),
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Transcribe, ServeSweep, CompileA4)
}
