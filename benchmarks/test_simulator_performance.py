"""Simulator engineering benchmarks (not a paper table).

How expensive is the simulation itself?  pytest-benchmark times the
functional fabric pass against the plain NumPy reference and the
data-free cycle model, so regressions in the simulator's own speed are
caught.  (Guides: no optimization without measuring.)
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.hw.controller import LatencyModel
from repro.hw.kernels import Fabric
from repro.hw.program import execute_program, lower_encoder_layer_program
from repro.model.encoder import encoder_layer
from repro.model.params import init_transformer_params

PARAMS = init_transformer_params(ModelConfig(num_encoders=1, num_decoders=0), seed=0)
LAYER = PARAMS.encoders[0]
X = np.random.default_rng(0).standard_normal((32, 512)).astype(np.float32)
FABRIC = Fabric()


def test_functional_encoder_on_fabric(benchmark):
    """One encoder layer through the striped hardware dataflow."""
    program = lower_encoder_layer_program(FABRIC, 32)
    run = benchmark(
        execute_program, program, root=LAYER, inputs={"x": X, "mask": None}
    )
    assert run.outputs["output"].shape == (32, 512)


def test_reference_encoder_numpy(benchmark):
    """The same layer through the golden model (baseline cost)."""
    out = benchmark(encoder_layer, X, LAYER)
    assert out.shape == (32, 512)


def test_cycle_model_full_stack(benchmark):
    """The data-free latency model over the full 18-block stack."""
    lm = LatencyModel()
    report = benchmark(lm.latency_report, 32, "A3")
    assert report.total_cycles > 0
