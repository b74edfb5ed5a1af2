"""The block-program IR: one lowering, three executors in lock-step.

The drift-lock sweep in ``test_hw_block_trace.py`` pins the cycle
numbers to fixed integers; this file pins the *structure*
of the program and the agreement between the executors — plus fault
injection as a program transform.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.hw.faults import FaultSpec, inject_faults, program_fault_hook
from repro.hw.program import (
    OpKind,
    _asap_times,
    block_compute_cycles,
    execute_program,
    lower_decode_step,
    lower_encoder_stack,
    lower_full_pass,
    program_block_work,
    resolve_head_parallelism,
    schedule_program,
    trace_block,
    trace_program,
)
from repro.hw.scheduler import Architecture

MODEL = ModelConfig(num_encoders=2, num_decoders=2)


@pytest.fixture(scope="module")
def program(fabric):
    return lower_full_pass(MODEL, fabric, 8)


class TestLoweringStructure:
    def test_lowering_is_cached(self, fabric):
        assert lower_full_pass(MODEL, fabric, 8) is lower_full_pass(
            MODEL, fabric, 8
        )

    def test_rejects_nonpositive_lengths(self, fabric):
        with pytest.raises(ValueError):
            lower_full_pass(MODEL, fabric, 0)
        with pytest.raises(ValueError):
            lower_decode_step(MODEL, fabric, 0, 8)

    def test_rejects_bad_head_parallelism(self, fabric):
        with pytest.raises(ValueError):
            lower_full_pass(MODEL, fabric, 8, parallel_heads=99)
        assert resolve_head_parallelism(fabric, 8, 2) == (2, 4)

    def test_blocks_partition_ops(self, program):
        seen: set[int] = set()
        for block in program.blocks:
            ids = set(block.op_ids)
            assert not ids & seen, f"{block.label} shares ops"
            seen |= ids
        assert seen == set(range(program.num_ops))

    def test_block_labels_follow_layers(self, program):
        labels = [b.label for b in program.blocks]
        assert labels == ["enc1", "enc2", "dec1m", "dec1f", "dec2m", "dec2f"]
        for b in program.blocks:
            if b.label.startswith("dec"):
                assert b.merge_group == b.label[:-1]

    def test_every_compute_op_is_engine_placed(self, program):
        for op in program.ops:
            assert op.engines
            if op.kind is OpKind.LOAD:
                assert op.engines == ("hbm",)

    def test_op_count_invariant_across_head_parallelism(self, fabric):
        counts = {
            lower_full_pass(MODEL, fabric, 8, parallel_heads=ph).num_ops
            for ph in (1, 2, 4, 8)
        }
        assert len(counts) == 1


class TestCycleExecutor:
    def test_a3_splits_decoders_a1_merges_them(self, program):
        a3 = program_block_work(program, "A3")
        a1 = program_block_work(program, "A1")
        assert len(a3) == MODEL.num_encoders + 2 * MODEL.num_decoders
        assert len(a1) == MODEL.num_encoders + MODEL.num_decoders
        # A3 pins decoder MHA and FFN parts to different HBM channels
        # (Fig 4.11 two-channel prefetch).
        channels = {
            w.label: w.channel_hint for w in a3 if w.label.startswith("dec")
        }
        assert channels["dec1m"] != channels["dec1f"]

    def test_merged_load_is_one_bundle_not_a_sum(self, program):
        a3 = {w.label: w for w in program_block_work(program, "A3")}
        a1 = {w.label: w for w in program_block_work(program, "A1")}
        parts = a3["dec1m"].load_cycles + a3["dec1f"].load_cycles
        merged = a1["dec1"].load_cycles
        # One contiguous HBM transfer of the whole decoder bundle: the
        # per-burst rounding never makes it slower than two transfers.
        assert 0 < merged <= parts

    def test_merged_compute_spans_both_parts(self, program):
        a1 = {w.label: w for w in program_block_work(program, "A1")}
        assert a1["dec1"].compute_cycles == (
            block_compute_cycles(program, "dec1m")
            + block_compute_cycles(program, "dec1f")
        )


def _uncached_span(program, op_ids):
    times = _asap_times(program, op_ids)
    return max((end for _, end in times.values()), default=0)


def _uncached_work(program, architecture):
    """(label, load, compute, channel_hint, overhead_override) per unit,
    recomputed from the blocks with no memo involved."""
    arch = Architecture(architecture)
    groups: list[list] = []
    for blk in program.blocks:
        prev = groups[-1][0] if groups else None
        if (
            arch is not Architecture.A3
            and blk.merge_group is not None
            and prev is not None
            and prev.merge_group == blk.merge_group
        ):
            groups[-1].append(blk)
        else:
            groups.append([blk])
    units = []
    for group in groups:
        head = group[0]
        span = _uncached_span(program, [oid for b in group for oid in b.op_ids])
        if len(group) > 1:
            load = head.merged_load_cycles
            if load is None:
                load = sum(b.load_cycles for b in group)
            units.append((head.merge_group, load, span, None, None))
        else:
            a3 = arch is Architecture.A3
            units.append((
                head.label,
                head.load_cycles,
                span,
                head.channel_hint if a3 else None,
                head.overhead_override if a3 else None,
            ))
    return units


class TestCostMemo:
    """Block spans and work units are derived once per program instance
    and must equal a from-scratch recompute."""

    def test_block_spans_match_uncached_asap(self, ir_program):
        for blk in ir_program.blocks:
            expected = _uncached_span(ir_program, blk.op_ids)
            assert block_compute_cycles(ir_program, blk) == expected
            assert block_compute_cycles(ir_program, blk.label) == expected

    @pytest.mark.parametrize("architecture", ["A1", "A2", "A3"])
    def test_block_work_matches_uncached_derivation(self, ir_program, architecture):
        for _ in range(2):  # cold, then from the memo
            work = program_block_work(ir_program, architecture)
            assert [
                (w.label, w.load_cycles, w.compute_cycles, w.channel_hint,
                 w.overhead_override)
                for w in work
            ] == _uncached_work(ir_program, architecture)

    def test_returned_list_is_fresh(self, program):
        first = program_block_work(program, "A1")
        expected = list(first)
        first.clear()
        second = program_block_work(program, "A1")
        assert second == expected
        assert second is not first

    def test_second_query_runs_no_asap(self, program, monkeypatch):
        fresh = dataclasses.replace(program)
        calls = []
        real = _asap_times

        def counting(prog, op_ids):
            calls.append(tuple(op_ids))
            return real(prog, op_ids)

        monkeypatch.setattr("repro.hw.program._asap_times", counting)
        for architecture in ("A1", "A2", "A3"):
            program_block_work(fresh, architecture)
        assert calls and len(calls) == len(set(calls))
        cold = len(calls)
        for architecture in ("A1", "A2", "A3"):
            program_block_work(fresh, architecture)
        for blk in fresh.blocks:
            block_compute_cycles(fresh, blk)
        trace_program(fresh, "A1")
        assert len(calls) == cold

    def test_replace_does_not_inherit_the_memo(self, program):
        full = program_block_work(program, "A3")
        head = dataclasses.replace(program, blocks=program.blocks[:1])
        assert program_block_work(head, "A3") == full[:1]
        assert len(program_block_work(program, "A3")) == len(full)
        # The memo is not a field: equality and field lists ignore it.
        assert dataclasses.replace(program) == program
        assert {f.name for f in dataclasses.fields(program)} == {
            "fabric", "ops", "blocks", "outputs", "meta"
        }


class TestTraceExecutor:
    def test_trace_block_makespan_matches_cycle_executor(self, fabric):
        program = lower_encoder_stack(MODEL, fabric, 8)
        timeline = trace_block(program, "enc1")
        assert timeline.makespan == block_compute_cycles(program, "enc1")

    @pytest.mark.parametrize("architecture", ["A1", "A2", "A3"])
    def test_trace_program_agrees_with_schedule(self, program, architecture):
        total = schedule_program(program, architecture).total_cycles
        timeline = trace_program(program, architecture)
        assert timeline.makespan == total
        timeline.validate_no_engine_overlap()

    def test_a3_uses_both_hbm_channels(self, program):
        timeline = trace_program(program, "A3")
        load_engines = {
            e.engine for e in timeline.events if e.kind == "load"
        }
        assert {"hbm0", "hbm1"} <= load_engines


class TestFunctionalExecutor:
    def test_missing_input_raises(self, fabric, small_params):
        program = lower_encoder_stack(small_params.config, fabric, 4)
        with pytest.raises(KeyError):
            execute_program(program, root=small_params, inputs={})

    def test_fault_hook_equals_param_injection(self, fabric, small_params, rng):
        """Fault injection as a program transform: hooking the weight
        reads of the clean program produces bit-identical outputs to
        running the clean program over deep-copied corrupted params."""
        cfg = small_params.config
        s = 4
        program = lower_encoder_stack(cfg, fabric, s)
        x = rng.standard_normal((s, cfg.d_model)).astype(np.float32)
        inputs = {"x": x, "enc_mask": None}
        faults = [
            FaultSpec("enc0.ffn.w1", index=3, bit=30),
            FaultSpec("enc1.mha.wq", index=7, bit=22),
        ]
        clean = execute_program(program, root=small_params, inputs=inputs)
        hooked = execute_program(
            program,
            root=small_params,
            inputs=inputs,
            weight_hook=program_fault_hook(faults),
        )
        injected = execute_program(
            program, root=inject_faults(small_params, faults), inputs=inputs
        )
        np.testing.assert_array_equal(
            hooked.outputs["output"], injected.outputs["output"]
        )
        assert not np.array_equal(
            hooked.outputs["output"], clean.outputs["output"]
        )

    def test_fault_hook_leaves_params_clean(self, fabric, small_params, rng):
        cfg = small_params.config
        program = lower_encoder_stack(cfg, fabric, 4)
        x = rng.standard_normal((4, cfg.d_model)).astype(np.float32)
        before = small_params.encoders[0].ffn.w1.copy()
        execute_program(
            program,
            root=small_params,
            inputs={"x": x, "enc_mask": None},
            weight_hook=program_fault_hook(
                [FaultSpec("enc0.ffn.w1", index=0, bit=31)]
            ),
        )
        np.testing.assert_array_equal(small_params.encoders[0].ffn.w1, before)
