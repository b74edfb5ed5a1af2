"""End-to-end integration: reference model vs accelerator on the full
pipeline, trained-model deployment onto the accelerator, and config
round trips."""

import numpy as np
import pytest

from repro.asr.dataset import LibriSpeechLikeDataset
from repro.asr.pipeline import AsrPipeline
from repro.config import ModelConfig
from repro.decoding.greedy import greedy_decode
from repro.decoding.vocab import CharVocabulary
from repro.hw.accelerator import TransformerAccelerator
from repro.model.transformer import Transformer


class TestFullPipelineIntegration:
    def test_pipeline_is_deterministic(self, small_params):
        utt = LibriSpeechLikeDataset(seed=1).generate(1, 2, 2)[0]
        pipe = AsrPipeline(small_params, hw_seq_len=32)
        r1 = pipe.transcribe(utt.waveform)
        r2 = pipe.transcribe(utt.waveform)
        assert r1.text == r2.text
        np.testing.assert_array_equal(r1.tokens, r2.tokens)

    def test_pipeline_latency_matches_paper_budget_shape(self, small_params):
        utt = LibriSpeechLikeDataset(seed=1).generate(1, 2, 2)[0]
        pipe = AsrPipeline(small_params, hw_seq_len=32)
        result = pipe.transcribe(utt.waveform)
        # Host + accelerator compose; accelerator dominates the E2E.
        assert result.e2e_ms > result.modeled_host_ms
        assert result.e2e_ms > result.accelerator_ms

    def test_greedy_matches_reference_decode(self, small_params, rng):
        """Decoding through the accelerator's step function must equal
        decoding through the reference model."""
        vocab = CharVocabulary()
        feats = rng.standard_normal((8, 512)).astype(np.float32)
        accel = TransformerAccelerator(small_params, hw_seq_len=16)
        ref = Transformer(small_params)

        def ref_step(tokens):
            return ref.log_probs(feats, tokens)[-1]

        hw_tokens = greedy_decode(
            accel.decode_session(feats).step_fn(), vocab.sos_id, vocab.eos_id, max_len=8
        )
        ref_tokens = greedy_decode(
            ref_step, vocab.sos_id, vocab.eos_id, max_len=8
        )
        np.testing.assert_array_equal(hw_tokens, ref_tokens)


class TestTrainedModelDeployment:
    """Train a toy model, export it, and run it on the accelerator."""

    def test_trained_weights_run_on_accelerator(self, rng):
        from repro.train.layers import TrainableTransformer

        vocab = CharVocabulary()
        cfg = ModelConfig(
            d_model=64,
            num_heads=1,
            d_ff=128,
            num_encoders=1,
            num_decoders=1,
            vocab_size=len(vocab),
        )
        model = TrainableTransformer(cfg, seed=3)
        params = model.export_params()
        accel = TransformerAccelerator(params, hw_seq_len=8)

        feats = rng.standard_normal((4, 64))
        toks = np.array([vocab.sos_id, 5])
        train_logits = model.forward(feats, toks).data
        hw_logits = accel.forward(
            model.project_features(feats), toks
        ).logits
        np.testing.assert_allclose(train_logits, hw_logits, rtol=2e-3, atol=2e-3)


class TestConfigIntegration:
    def test_scaled_config(self):
        cfg = ModelConfig().scaled(8)
        assert cfg.d_model == 64
        assert cfg.d_ff == 256
        assert cfg.num_heads == 8

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            ModelConfig().scaled(3)  # does not divide 512... (512/3)

    def test_with_depth(self):
        cfg = ModelConfig().with_depth(2, 1)
        assert cfg.num_encoders == 2
        assert cfg.num_decoders == 1

    def test_hardware_cycle_conversions(self, hardware):
        ms = hardware.cycles_to_ms(300_000)
        assert ms == pytest.approx(1.0)
        assert hardware.ms_to_cycles(ms) == pytest.approx(300_000)

    def test_config_validation_messages(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=100, num_heads=3)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=1)
