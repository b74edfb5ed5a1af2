"""Tests for block-level execution: MHA / FFN / encoder / decoder
programs on the fabric must agree numerically with the golden model."""

import dataclasses

import numpy as np
import pytest

from repro.hw.controller import AcceleratorController, LatencyModel
from repro.hw.nonlinear import add_norm_unit
from repro.hw.program import (
    block_compute_cycles,
    execute_program,
    lower_encoder_layer_program,
    lower_ffn_program,
    lower_mha_program,
)
from repro.model.attention import attention_head, multi_head_attention
from repro.model.decoder import decoder_layer
from repro.model.encoder import encoder_layer
from repro.model.ffn import feed_forward
from repro.model.masks import causal_mask
from repro.model.params import init_transformer_params

PARAMS = init_transformer_params(seed=11)  # full 512-dim paper config
ENC = PARAMS.encoders[0]
DEC = PARAMS.decoders[0]

S = 12
RTOL = 5e-4
ATOL = 5e-4


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(1).standard_normal((S, 512)).astype(np.float32)


@pytest.fixture(scope="module")
def memory():
    return np.random.default_rng(2).standard_normal((S, 512)).astype(np.float32)


def run_mha(fabric, x_q, x_kv, params, mask=None, parallel_heads=None):
    program = lower_mha_program(
        fabric,
        x_q.shape[-2],
        x_kv.shape[-2],
        params.num_heads,
        params.d_model,
        parallel_heads,
    )
    inputs = {"x_q": x_q, "x_kv": x_kv, "mask": mask}
    return program, execute_program(program, root=params, inputs=inputs)


def mha_cycles(fabric, s, parallel_heads=None):
    program = lower_mha_program(fabric, s, s, 8, 512, parallel_heads)
    return block_compute_cycles(program, "mha")


def ffn_cycles(fabric, s):
    return block_compute_cycles(lower_ffn_program(fabric, s, 512, 2048), "ffn")


def head_output(program, run, head):
    """The (s, d_k) MM3 output of one head inside an MHA program run."""
    (op,) = [op for op in program.ops if op.label == f"h{head}:MM3"]
    return run.values[op.op_id]


class TestAttentionHead:
    def test_matches_reference(self, fabric, x):
        program, run = run_mha(fabric, x, x, ENC.mha)
        ref = attention_head(x, x, ENC.mha, head=3)
        np.testing.assert_allclose(
            head_output(program, run, 3), ref, rtol=RTOL, atol=ATOL
        )

    def test_masked_head_matches_reference(self, fabric, x):
        mask = causal_mask(S)
        program, run = run_mha(fabric, x, x, DEC.self_mha, mask=mask)
        ref = attention_head(x, x, DEC.self_mha, 0, mask=mask)
        np.testing.assert_allclose(
            head_output(program, run, 0), ref, rtol=RTOL, atol=ATOL
        )


class TestMhaBlock:
    def test_matches_reference(self, fabric, x):
        _, run = run_mha(fabric, x, x, ENC.mha)
        ref = multi_head_attention(x, x, ENC.mha)
        np.testing.assert_allclose(run.outputs["output"], ref, rtol=RTOL, atol=ATOL)

    def test_cross_attention_matches(self, fabric, x, memory):
        _, run = run_mha(fabric, x, memory, DEC.cross_mha)
        ref = multi_head_attention(x, memory, DEC.cross_mha)
        np.testing.assert_allclose(run.outputs["output"], ref, rtol=RTOL, atol=ATOL)

    def test_parallel_heads_same_output_different_cycles(self, fabric, x):
        _, full = run_mha(fabric, x, x, ENC.mha, parallel_heads=8)
        _, waves = run_mha(fabric, x, x, ENC.mha, parallel_heads=2)
        np.testing.assert_array_equal(
            full.outputs["output"], waves.outputs["output"]
        )
        assert waves.block_compute_cycles != full.block_compute_cycles

    def test_parallel_heads_validation(self, fabric, x):
        with pytest.raises(ValueError):
            run_mha(fabric, x, x, ENC.mha, parallel_heads=16)


class TestFfnBlock:
    def test_matches_reference(self, fabric, x):
        program = lower_ffn_program(fabric, S, 512, 2048)
        run = execute_program(program, root=ENC.ffn, inputs={"x": x})
        ref = feed_forward(x, ENC.ffn)
        np.testing.assert_allclose(run.outputs["output"], ref, rtol=RTOL, atol=2e-3)

    def test_cycles_match_estimator(self, fabric, x):
        """The FFN has no overlap: MM5 + B_1F + ReLU + MM6 + B_2F in
        series, so its makespan is the plain sum of its op cycles."""
        program = lower_ffn_program(fabric, S, 512, 2048)
        run = execute_program(program, root=ENC.ffn, inputs={"x": x})
        serial = sum(op.cycles for op in program.ops)
        assert run.block_compute_cycles["ffn"] == serial


class TestAddNormBlock:
    def test_matches_reference(self, fabric, x):
        from repro.model.layernorm import add_norm

        residual = (x * 0.5).astype(np.float32)
        hw = add_norm_unit(x, residual, ENC.norm1.weight, ENC.norm1.bias)
        ref = add_norm(x, residual, ENC.norm1.weight, ENC.norm1.bias)
        np.testing.assert_allclose(hw, ref, rtol=RTOL, atol=ATOL)


class TestEncoderBlock:
    def test_matches_reference(self, fabric, x):
        program = lower_encoder_layer_program(fabric, S)
        run = execute_program(program, root=ENC, inputs={"x": x, "mask": None})
        ref = encoder_layer(x, ENC)
        np.testing.assert_allclose(run.outputs["output"], ref, rtol=1e-3, atol=2e-3)

    def test_cycles_match_estimator(self, fabric, x):
        """The single-layer program and every layer of the full pass
        lower to the same compute cycles."""
        program = lower_encoder_layer_program(fabric, S)
        run = execute_program(program, root=ENC, inputs={"x": x, "mask": None})
        full = LatencyModel().full_pass_program(S)
        for i in range(PARAMS.config.num_encoders):
            assert run.block_compute_cycles["enc1"] == block_compute_cycles(
                full, f"enc{i + 1}"
            )


def one_decoder_controller() -> AcceleratorController:
    """A controller whose decoder stack is exactly ``DEC``."""
    config = PARAMS.config.with_depth(PARAMS.config.num_encoders, 1)
    params = dataclasses.replace(PARAMS, config=config, decoders=(DEC,))
    return AcceleratorController(params)


class TestDecoderBlock:
    def test_matches_reference(self, fabric, x, memory):
        out, _ = one_decoder_controller().run_decoder_stack(
            x, memory, self_mask=causal_mask(S)
        )
        ref = decoder_layer(x, memory, DEC)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=2e-3)

    def test_cycle_split_matches_estimator(self, fabric, x, memory):
        _, cycles = one_decoder_controller().run_decoder_stack(
            x, memory, self_mask=causal_mask(S)
        )
        m, f = LatencyModel().decoder_compute_cycles(S)
        assert cycles["dec1m"] == m
        assert cycles["dec1f"] == f


class TestCycleEstimators:
    def test_ffn_roughly_double_mha(self, fabric):
        """Section 5.1.4: the FFN block consumes ~2x the MHA latency."""
        for s in (16, 32):
            assert 1.5 < ffn_cycles(fabric, s) / mha_cycles(fabric, s) < 3.0

    def test_encoder_cycles_monotone_in_s(self, fabric):
        lm = LatencyModel()
        values = [lm.encoder_compute_cycles(s) for s in (4, 8, 16, 32)]
        assert values == sorted(values)

    def test_dse_latency_ordering(self, fabric):
        """Table 5.3: fewer parallel heads -> more latency."""
        lat = [mha_cycles(fabric, 32, parallel_heads=p) for p in (8, 4, 2, 1)]
        assert lat == sorted(lat)

    def test_decoder_mha_part_exceeds_encoder_mha(self, fabric):
        m, _ = LatencyModel().decoder_compute_cycles(16)
        assert m > mha_cycles(fabric, 16)
