"""Shared fixtures: small model configs and parameter sets so the
functional tests stay fast while exercising every code path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CalibrationConfig, HardwareConfig, ModelConfig
from repro.hw.kernels import Fabric
from repro.model.params import TransformerParams, init_transformer_params


@pytest.fixture(scope="session")
def small_config() -> ModelConfig:
    """A shrunken model that still has multi-layer encoder/decoder."""
    return ModelConfig(num_encoders=2, num_decoders=2)


@pytest.fixture(scope="session")
def tiny_config() -> ModelConfig:
    """Very small dims for training / exhaustive tests."""
    return ModelConfig(
        d_model=32,
        num_heads=2,
        d_ff=64,
        num_encoders=1,
        num_decoders=1,
        vocab_size=31,
    )


@pytest.fixture(scope="session")
def small_params(small_config) -> TransformerParams:
    return init_transformer_params(small_config, seed=7)


@pytest.fixture(scope="session")
def paper_config() -> ModelConfig:
    """The full paper configuration (used for analytic tests only)."""
    return ModelConfig()


@pytest.fixture(scope="session")
def hardware() -> HardwareConfig:
    return HardwareConfig()


@pytest.fixture(scope="session")
def calibration() -> CalibrationConfig:
    return CalibrationConfig()


@pytest.fixture(scope="session")
def fabric(hardware, calibration) -> Fabric:
    return Fabric(hardware, calibration)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(
    scope="session",
    params=["full_s8", "full_s32", "encoder_stack_s8", "decode_step_t16_s32", "a4_s8"],
)
def ir_program(request, small_config, fabric):
    """One lowered program of each kind the cost model sees: full
    passes, an encoder stack, a decode step and an A4-optimized pass."""
    from repro.hw.dse import synthesize_a4
    from repro.hw.program import lower_decode_step, lower_encoder_stack, lower_full_pass

    return {
        "full_s8": lambda: lower_full_pass(small_config, fabric, 8),
        "full_s32": lambda: lower_full_pass(small_config, fabric, 32),
        "encoder_stack_s8": lambda: lower_encoder_stack(small_config, fabric, 8),
        "decode_step_t16_s32": lambda: lower_decode_step(small_config, fabric, 16, 32),
        "a4_s8": lambda: synthesize_a4(model=small_config, s=8).program,
    }[request.param]()
