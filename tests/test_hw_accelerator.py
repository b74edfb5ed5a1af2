"""Tests for the accelerator facade: padding, masking, and end-to-end
equivalence with the reference Transformer."""

import numpy as np
import pytest

from repro.hw.accelerator import TransformerAccelerator
from repro.model.transformer import Transformer

RTOL = 2e-3
ATOL = 2e-3


@pytest.fixture(scope="module")
def accel(small_params):
    return TransformerAccelerator(small_params, hw_seq_len=16)


@pytest.fixture(scope="module")
def reference(small_params):
    return Transformer(small_params)


class TestPaddingEquivalence:
    """The padded + masked accelerator must match the reference model
    run on the *unpadded* input."""

    @pytest.mark.parametrize("s", [3, 8, 16])
    def test_logits_match_reference(self, accel, reference, s):
        rng = np.random.default_rng(s)
        feats = rng.standard_normal((s, 512)).astype(np.float32)
        toks = rng.integers(0, accel.config.vocab_size, size=min(s, 5))
        ref = reference.forward(feats, toks)
        out = accel.forward(feats, toks)
        assert out.logits.shape == ref.shape
        np.testing.assert_allclose(out.logits, ref, rtol=RTOL, atol=ATOL)

    def test_memory_matches_reference_encoder(self, accel, reference, rng):
        feats = rng.standard_normal((10, 512)).astype(np.float32)
        ref_memory = reference.encode(feats)
        out = accel.forward(feats, np.array([0]))
        np.testing.assert_allclose(out.memory, ref_memory, rtol=RTOL, atol=ATOL)

    def test_log_probs_normalized(self, accel, rng):
        feats = rng.standard_normal((6, 512)).astype(np.float32)
        lp = accel.log_probs(feats, np.array([0, 4]))
        np.testing.assert_allclose(np.exp(lp).sum(axis=-1), 1.0, rtol=1e-4)

    def test_padding_does_not_change_result(self, accel, rng):
        """Same input at different amounts of padding -> same logits."""
        feats = rng.standard_normal((5, 512)).astype(np.float32)
        toks = np.array([0, 3])
        wide = TransformerAccelerator(accel.params, hw_seq_len=16)
        wider = TransformerAccelerator(accel.params, hw_seq_len=12)
        np.testing.assert_allclose(
            wide.forward(feats, toks).logits,
            wider.forward(feats, toks).logits,
            rtol=1e-4,
            atol=1e-4,
        )


class TestStepFn:
    def test_step_matches_forward(self, accel, rng):
        feats = rng.standard_normal((6, 512)).astype(np.float32)
        toks = np.array([0, 7, 9])
        step = accel.decode_session(feats).step_fn()
        lp_step = step(toks)
        lp_fwd = accel.log_probs(feats, toks)[-1]
        np.testing.assert_allclose(lp_step, lp_fwd, rtol=1e-4, atol=1e-5)

    def test_step_returns_1d(self, accel, rng):
        feats = rng.standard_normal((4, 512)).astype(np.float32)
        step = accel.decode_session(feats).step_fn()
        assert step(np.array([0])).shape == (accel.config.vocab_size,)


class TestValidation:
    def test_rejects_too_long_input(self, accel, rng):
        feats = rng.standard_normal((17, 512)).astype(np.float32)
        with pytest.raises(ValueError):
            accel.forward(feats, np.array([0]))

    def test_rejects_wrong_feature_dim(self, accel):
        with pytest.raises(ValueError):
            accel.forward(np.zeros((4, 100), dtype=np.float32), np.array([0]))

    def test_rejects_empty_tokens(self, accel, rng):
        feats = rng.standard_normal((4, 512)).astype(np.float32)
        with pytest.raises(ValueError):
            accel.forward(feats, np.array([], dtype=np.int64))

    def test_rejects_out_of_vocab_tokens(self, accel, rng):
        feats = rng.standard_normal((4, 512)).astype(np.float32)
        with pytest.raises(ValueError):
            accel.forward(feats, np.array([999]))

    def test_rejects_bad_hw_seq_len(self, small_params):
        with pytest.raises(ValueError):
            TransformerAccelerator(small_params, hw_seq_len=0)

    @pytest.mark.parametrize("value", [2.5, True, float("nan"), -3, "16"])
    def test_rejects_non_integer_hw_seq_len(self, small_params, value):
        with pytest.raises(ValueError, match="hw_seq_len"):
            TransformerAccelerator(small_params, hw_seq_len=value)

    def test_accepts_numpy_integer_hw_seq_len(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=np.int64(8))
        assert accel.hw_seq_len == 8 and type(accel.hw_seq_len) is int


#: Each way encoder features enter the accelerator.
FEATURE_ENTRIES = {
    "forward": lambda accel, f: accel.forward(f, np.array([0])),
    "decode_session": lambda accel, f: accel.decode_session(f),
    "decode_sessions_batch": lambda accel, f: accel.decode_sessions_batch(
        [np.ones((3, 512), dtype=np.float32), f]
    ),
}


class TestInputEnvelope:
    """Out-of-envelope inputs used to be accepted: a 0-row feature
    matrix gave finite log-probs over a fully masked memory, NaN
    features flowed through, and a float token id was truncated."""

    @pytest.mark.parametrize("entry", sorted(FEATURE_ENTRIES))
    def test_rejects_zero_row_features(self, accel, entry):
        with pytest.raises(ValueError, match="features"):
            FEATURE_ENTRIES[entry](accel, np.zeros((0, 512), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", sorted(FEATURE_ENTRIES))
    def test_rejects_non_finite_features(self, accel, rng, entry, bad):
        feats = rng.standard_normal((4, 512)).astype(np.float32)
        feats[2, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            FEATURE_ENTRIES[entry](accel, feats)

    @pytest.mark.parametrize(
        "tokens", [np.array([1.7]), np.array([1.0, 2.0]), np.array([True])]
    )
    def test_rejects_non_integer_tokens(self, accel, tokens):
        with pytest.raises(ValueError, match="integer dtype"):
            accel.embed_tokens(tokens)

    def test_empty_tokens_still_report_non_empty(self, accel):
        with pytest.raises(ValueError, match="non-empty"):
            accel.embed_tokens(np.array([]))

    def test_step_fn_rejects_float_prefix(self, accel, rng):
        feats = rng.standard_normal((4, 512)).astype(np.float32)
        step = accel.decode_session(feats).step_fn()
        with pytest.raises(ValueError, match="integer dtype"):
            step(np.array([0.0, 7.0]))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_accepts_integer_tokens(self, accel, dtype):
        emb = accel.embed_tokens(np.array([0, 7], dtype=dtype))
        assert emb.shape == (2, 512)


class TestLatencyIntegration:
    def test_report_architecture_override(self, accel, rng):
        feats = rng.standard_normal((4, 512)).astype(np.float32)
        out1 = accel.forward(feats, np.array([0]), architecture="A1")
        out3 = accel.forward(feats, np.array([0]), architecture="A3")
        assert out1.report.total_cycles > out3.report.total_cycles

    def test_latency_report_uses_hw_seq_len(self, accel):
        r = accel.latency_report()
        r16 = accel.latency_model.latency_report(16, accel.architecture)
        assert r.total_cycles == r16.total_cycles
