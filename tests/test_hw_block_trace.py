"""Tests for the per-engine Fig 4.13 block trace and the pinned
compute cycles of the block-program IR."""

import pytest

from repro.config import ModelConfig
from repro.hw.controller import LatencyModel
from repro.hw.program import (
    block_compute_cycles,
    lower_decode_step,
    lower_encoder_layer_program,
    lower_full_pass,
    schedule_program,
    trace_block,
    trace_program,
)
from repro.hw.visualize import render_gantt


def trace_encoder_layer(fabric, s, parallel_heads=None):
    """Per-engine trace of one paper-sized encoder layer."""
    return trace_block(
        lower_encoder_layer_program(fabric, s, parallel_heads=parallel_heads)
    )


class TestBlockTrace:
    @pytest.mark.parametrize("parallel_heads", [8, 4, 2, 1])
    @pytest.mark.parametrize("s", [4, 32])
    def test_makespan_equals_cycle_estimator(self, fabric, s, parallel_heads):
        """The Gantt chart and the latency model are the same model."""
        timeline = trace_encoder_layer(fabric, s, parallel_heads=parallel_heads)
        lm = LatencyModel(parallel_heads=parallel_heads)
        assert timeline.makespan == lm.encoder_compute_cycles(s)

    def test_no_engine_double_booking(self, fabric):
        timeline = trace_encoder_layer(fabric, 16)
        timeline.validate_no_engine_overlap()

    def test_all_psa_groups_busy(self, fabric):
        timeline = trace_encoder_layer(fabric, 16, parallel_heads=8)
        psa_engines = [e for e in timeline.engines() if ".psa" in e]
        assert len(psa_engines) == 8
        # Both SLRs host four heads each (Fig 4.13).
        assert sum(e.startswith("slr0") for e in psa_engines) == 4
        assert sum(e.startswith("slr1") for e in psa_engines) == 4

    def test_sc_sm_overlaps_mm1v(self, fabric):
        timeline = trace_encoder_layer(fabric, 16)
        sm_events = [e for e in timeline.events if "Sc+Sm" in e.label]
        mm1v_events = {
            e.label.split(":")[0]: e
            for e in timeline.events
            if "MM1(V)" in e.label
        }
        assert sm_events
        for sm in sm_events:
            head = sm.label.split(":")[0]
            mm1v = mm1v_events[head]
            assert sm.start == mm1v.start  # launched together
            assert sm.end <= mm1v.end  # hidden under MM1(V)

    def test_mm4_waits_for_all_heads(self, fabric):
        timeline = trace_encoder_layer(fabric, 16)
        head_ends = max(e.end for e in timeline.events if "MM3" in e.label)
        mm4_start = min(e.start for e in timeline.events if e.label == "MM4")
        assert mm4_start >= head_ends

    def test_ffn_after_first_add_norm(self, fabric):
        timeline = trace_encoder_layer(fabric, 16)
        norm1_end = next(
            e.end for e in timeline.events if e.label == "Add-Norm1"
        )
        mm5_start = min(e.start for e in timeline.events if e.label == "MM5")
        assert mm5_start >= norm1_end

    def test_renders(self, fabric):
        art = render_gantt(trace_encoder_layer(fabric, 8), width=120)
        assert "psa" in art and "MM5" in art

    def test_parallel_heads_validation(self, fabric):
        with pytest.raises(ValueError):
            trace_encoder_layer(fabric, 8, parallel_heads=99)


#: Small stack: the pinned numbers are per-layer, so two layers of
#: each kind exercise the chaining without slowing the sweep down.
_SWEEP_MODEL = ModelConfig(num_encoders=2, num_decoders=2)

#: (s, parallel_heads) -> per-layer (enc, dec m-part, dec f-part)
#: compute cycles of the full pass at t = s.  Generated from the
#: closed-form Fig 4.13 cycle sums (MM1..MM6 kernel formulas composed
#: with the B(K) || MM1(Q) and Sc+Sm || MM1(V) overlaps) that the IR
#: replaced; the IR must reproduce them exactly.
_FULL_PASS_CYCLES = {
    (8, 1): (439660, 455180, 212070),
    (8, 2): (374864, 325588, 212070),
    (8, 4): (342466, 260792, 212070),
    (8, 8): (326267, 228394, 212070),
    (18, 1): (879149, 814498, 471900),
    (18, 2): (784417, 625034, 471900),
    (18, 4): (737051, 530302, 471900),
    (18, 8): (713368, 482936, 471900),
    (32, 1): (1494481, 1317638, 835662),
    (32, 2): (1357829, 1044334, 835662),
    (32, 4): (1289503, 907682, 835662),
    (32, 8): (1255340, 839356, 835662),
    (64, 1): (2900867, 2467502, 1667116),
    (64, 2): (2668415, 2002598, 1667116),
    (64, 4): (2552189, 1770146, 1667116),
    (64, 8): (2494076, 1653920, 1667116),
}

#: (s, parallel_heads) -> per-layer (dec m-part, dec f-part) compute
#: cycles of the KV-cached decode step at t = s // 2, from the same
#: closed-form sums collapsed to a 1-row query.
_DECODE_STEP_CYCLES = {
    (8, 1): (196438, 56016),
    (8, 2): (118298, 56016),
    (8, 4): (79228, 56016),
    (8, 8): (59693, 56016),
    (18, 1): (197398, 56016),
    (18, 2): (118778, 56016),
    (18, 4): (79468, 56016),
    (18, 8): (59813, 56016),
    (32, 1): (198742, 56016),
    (32, 2): (119450, 56016),
    (32, 4): (79804, 56016),
    (32, 8): (59981, 56016),
    (64, 1): (201814, 56016),
    (64, 2): (120986, 56016),
    (64, 4): (80572, 56016),
    (64, 8): (60365, 56016),
}


class TestDriftLock:
    """The three executors may never drift apart: the trace-executor
    makespan must stay integer-identical to the cycle schedule, and the
    per-block compute cycles to the pinned analytic values, across the
    full s x head-parallelism x architecture sweep."""

    @pytest.mark.parametrize("parallel_heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("s", [8, 18, 32, 64])
    def test_block_cycles_match_analytic(self, fabric, s, parallel_heads):
        m = _SWEEP_MODEL
        program = lower_full_pass(m, fabric, s, parallel_heads=parallel_heads)
        enc, mha_part, ffn_part = _FULL_PASS_CYCLES[(s, parallel_heads)]
        for i in range(m.num_encoders):
            assert block_compute_cycles(program, f"enc{i + 1}") == enc
        for i in range(m.num_decoders):
            assert block_compute_cycles(program, f"dec{i + 1}m") == mha_part
            assert block_compute_cycles(program, f"dec{i + 1}f") == ffn_part

    @pytest.mark.parametrize("parallel_heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("s", [8, 18, 32, 64])
    def test_step_block_cycles_match_analytic(self, fabric, s, parallel_heads):
        m = _SWEEP_MODEL
        t = max(s // 2, 1)
        program = lower_decode_step(m, fabric, t, s, parallel_heads)
        mha_part, ffn_part = _DECODE_STEP_CYCLES[(s, parallel_heads)]
        for i in range(m.num_decoders):
            assert block_compute_cycles(program, f"dec{i + 1}m") == mha_part
            assert block_compute_cycles(program, f"dec{i + 1}f") == ffn_part

    @pytest.mark.parametrize("architecture", ["A1", "A2", "A3"])
    @pytest.mark.parametrize("parallel_heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("s", [8, 18, 32, 64])
    def test_trace_makespan_equals_schedule(
        self, fabric, s, parallel_heads, architecture
    ):
        program = lower_full_pass(
            _SWEEP_MODEL, fabric, s, parallel_heads=parallel_heads
        )
        overhead = fabric.calibration.block_overhead_cycles
        total = schedule_program(program, architecture, overhead).total_cycles
        timeline = trace_program(program, architecture, overhead)
        assert timeline.makespan == total
        timeline.validate_no_engine_overlap()

    @pytest.mark.parametrize("architecture", ["A1", "A2", "A3"])
    @pytest.mark.parametrize("s", [8, 32])
    def test_step_trace_makespan_equals_schedule(self, fabric, s, architecture):
        program = lower_decode_step(_SWEEP_MODEL, fabric, max(s // 2, 1), s)
        overhead = fabric.calibration.block_overhead_cycles
        total = schedule_program(program, architecture, overhead).total_cycles
        assert trace_program(program, architecture, overhead).makespan == total
