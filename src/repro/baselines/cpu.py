"""CPU baseline (Table 5.4).

Two baselines are provided:

* :class:`CpuLatencyModel` — a calibrated model of the paper's testbed
  (Intel Xeon E5-2640 @ 2.5 GHz, 24 cores, wav2vec/PyTorch software
  stack).  It interpolates monotonically through the six anchor
  latencies the paper reports, so Table 5.4 reproduces exactly and
  intermediate sequence lengths are sensible.
* :class:`MeasuredCpuBaseline` — actually runs the reference NumPy
  Transformer on the local machine and reports wall-clock time.  Useful
  for grounding, but not comparable to the paper's absolute numbers.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.interpolate import PchipInterpolator

from repro.config import ModelConfig
from repro.model.params import TransformerParams, init_transformer_params
from repro.model.transformer import Transformer

#: Sequence length -> seconds, from Table 5.4 of the paper.
CPU_ANCHORS: dict[int, float] = {4: 0.4, 8: 1.1, 16: 3.1, 20: 3.4, 24: 3.8, 32: 4.5}


class _AnchoredLatencyModel:
    """Monotone interpolation through published (s, seconds) anchors."""

    def __init__(self, anchors: dict[int, float], name: str) -> None:
        if len(anchors) < 2:
            raise ValueError("need at least two anchor points")
        items = sorted(anchors.items())
        self._s = np.array([k for k, _ in items], dtype=np.float64)
        self._lat = np.array([v for _, v in items], dtype=np.float64)
        if np.any(np.diff(self._lat) <= 0):
            raise ValueError("anchor latencies must be strictly increasing")
        self._interp = PchipInterpolator(self._s, self._lat, extrapolate=False)
        self.name = name

    def latency_s(self, s: int) -> float:
        """Predicted latency (seconds) at sequence length ``s``."""
        if s <= 0:
            raise ValueError("s must be positive")
        if s <= self._s[0]:
            # Below the published range: scale the first anchor linearly.
            return float(self._lat[0] * s / self._s[0])
        if s >= self._s[-1]:
            # Beyond the published range: extend with the final slope.
            slope = (self._lat[-1] - self._lat[-2]) / (self._s[-1] - self._s[-2])
            return float(self._lat[-1] + slope * (s - self._s[-1]))
        return float(self._interp(s))

    def latency_ms(self, s: int) -> float:
        return self.latency_s(s) * 1e3

    def speedup_over(self, s: int, accelerator_latency_s: float) -> float:
        """How much faster the accelerator is than this baseline."""
        if accelerator_latency_s <= 0:
            raise ValueError("accelerator latency must be positive")
        return self.latency_s(s) / accelerator_latency_s


class CpuLatencyModel(_AnchoredLatencyModel):
    """Calibrated Intel Xeon E5-2640 latency model (Table 5.4)."""

    def __init__(self, anchors: dict[int, float] | None = None) -> None:
        super().__init__(anchors or CPU_ANCHORS, name="Intel Xeon E5-2640")


class MeasuredCpuBaseline:
    """Wall-clock measurement of the reference NumPy implementation."""

    def __init__(
        self,
        config: ModelConfig | None = None,
        params: TransformerParams | None = None,
        seed: int = 0,
    ) -> None:
        if params is None:
            params = init_transformer_params(config or ModelConfig(), seed=seed)
        self.model = Transformer(params)

    def run_once(self, s: int, rng: np.random.Generator | None = None) -> float:
        """Time one full inference at sequence length ``s`` (seconds)."""
        if s <= 0:
            raise ValueError("s must be positive")
        rng = rng or np.random.default_rng(0)
        cfg = self.model.config
        features = rng.standard_normal((s, cfg.d_model)).astype(np.float32)
        tokens = rng.integers(0, cfg.vocab_size, size=s)
        start = time.perf_counter()
        self.model.forward(features, tokens)
        return time.perf_counter() - start

    def median_latency_s(self, s: int, repeats: int = 3) -> float:
        """Median of several timed runs."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        times = sorted(self.run_once(s) for _ in range(repeats))
        return times[len(times) // 2]
