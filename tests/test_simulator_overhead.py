"""Performance smoke test: simulating the fabric must stay cheap.

The striped functional path runs ~30 small matmuls where NumPy runs ~8
large ones; if a change makes the simulator orders of magnitude slower,
this catches it (pytest-benchmark tracks the precise numbers in
benchmarks/test_simulator_performance.py).
"""

import time

import numpy as np

from repro.config import ModelConfig
from repro.hw.kernels import Fabric
from repro.hw.program import execute_program, lower_encoder_layer_program
from repro.model.encoder import encoder_layer
from repro.model.params import init_transformer_params


def test_simulation_overhead_is_bounded():
    params = init_transformer_params(
        ModelConfig(num_encoders=1, num_decoders=0), seed=0
    )
    layer = params.encoders[0]
    x = np.random.default_rng(0).standard_normal((32, 512)).astype(np.float32)
    fabric = Fabric()

    def time_it(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    program = lower_encoder_layer_program(fabric, 32)
    inputs = {"x": x, "mask": None}
    fabric_t = time_it(lambda: execute_program(program, root=layer, inputs=inputs))
    reference_t = time_it(lambda: encoder_layer(x, layer))
    assert fabric_t < 40 * reference_t
