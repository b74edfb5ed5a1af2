"""Tests for the CPU/GPU baselines, energy, roofline and related work."""

import pytest

from repro.baselines.cpu import CPU_ANCHORS, CpuLatencyModel, MeasuredCpuBaseline
from repro.baselines.energy import (
    GPU_EFFECTIVE_POWER_W,
    fpga_energy_model,
    gpu_energy_model,
)
from repro.baselines.gpu import GPU_ANCHORS, GpuLatencyModel
from repro.baselines.related import REFERENCE_WORKS, comparison_table, our_entry
from repro.baselines.roofline import (
    RooflineModel,
    accelerator_roofline,
    model_intensity_profile,
)
from repro.config import ModelConfig
from repro.hw.controller import LatencyModel


class TestCpuModel:
    def test_reproduces_anchors_exactly(self):
        cpu = CpuLatencyModel()
        for s, latency in CPU_ANCHORS.items():
            assert cpu.latency_s(s) == pytest.approx(latency, rel=1e-9)

    def test_monotone_between_anchors(self):
        cpu = CpuLatencyModel()
        values = [cpu.latency_s(s) for s in range(4, 33)]
        assert values == sorted(values)

    def test_extrapolation_above(self):
        cpu = CpuLatencyModel()
        assert cpu.latency_s(40) > cpu.latency_s(32)

    def test_extrapolation_below(self):
        cpu = CpuLatencyModel()
        assert 0 < cpu.latency_s(2) < cpu.latency_s(4)

    def test_speedup_over(self):
        cpu = CpuLatencyModel()
        assert cpu.speedup_over(32, 0.08415) == pytest.approx(53.5, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuLatencyModel({4: 1.0})  # single anchor
        with pytest.raises(ValueError):
            CpuLatencyModel({4: 2.0, 8: 1.0})  # non-monotone
        with pytest.raises(ValueError):
            CpuLatencyModel().latency_s(0)
        with pytest.raises(ValueError):
            CpuLatencyModel().speedup_over(4, 0.0)


class TestGpuModel:
    def test_reproduces_anchors(self):
        gpu = GpuLatencyModel()
        for s, latency in GPU_ANCHORS.items():
            assert gpu.latency_s(s) == pytest.approx(latency, rel=1e-9)

    def test_gpu_faster_than_cpu_everywhere(self):
        cpu, gpu = CpuLatencyModel(), GpuLatencyModel()
        for s in range(4, 33):
            assert gpu.latency_s(s) < cpu.latency_s(s)


class TestMeasuredBaseline:
    def test_returns_positive_time(self, small_config):
        baseline = MeasuredCpuBaseline(small_config)
        assert baseline.run_once(4) > 0

    def test_median(self, small_config):
        baseline = MeasuredCpuBaseline(small_config)
        assert baseline.median_latency_s(4, repeats=3) > 0

    def test_validation(self, small_config):
        baseline = MeasuredCpuBaseline(small_config)
        with pytest.raises(ValueError):
            baseline.run_once(0)
        with pytest.raises(ValueError):
            baseline.median_latency_s(4, repeats=0)


class TestEnergy:
    def test_fpga_efficiency_near_paper(self):
        """Section 5.1.6: 1.38 GFLOPs/J at s=32."""
        fpga = fpga_energy_model()
        lm = LatencyModel()
        latency_s = lm.latency_report(32, "A3").latency_ms / 1e3
        eff = fpga.gflops_per_joule(32, latency_s)
        assert eff == pytest.approx(1.38, rel=0.10)

    def test_gpu_efficiency_near_paper(self):
        """Section 5.1.6: ~0.055 GFLOPs/J for the GPU."""
        gpu = gpu_energy_model()
        eff = gpu.gflops_per_joule(32, GPU_ANCHORS[32])
        assert eff == pytest.approx(0.055, rel=0.10)

    def test_fpga_25x_more_efficient_than_gpu(self):
        fpga = fpga_energy_model()
        gpu = gpu_energy_model()
        lm = LatencyModel()
        f = fpga.gflops_per_joule(32, lm.latency_report(32, "A3").latency_ms / 1e3)
        g = gpu.gflops_per_joule(32, GPU_ANCHORS[32])
        assert f / g > 20

    def test_validation(self):
        with pytest.raises(ValueError):
            fpga_energy_model().gflops_per_second(32, 0.0)
        assert GPU_EFFECTIVE_POWER_W > 0


class TestRelatedWork:
    def test_reference_gflops_per_second(self):
        """Table 5.6 columns: 0.52, 7.48, 14.47 GFLOPs/s."""
        rates = [e.gflops_per_second for e in REFERENCE_WORKS]
        assert rates[0] == pytest.approx(0.52, rel=0.02)
        assert rates[1] == pytest.approx(7.48, rel=0.02)
        assert rates[2] == pytest.approx(14.47, rel=0.02)

    def test_our_entry_near_paper(self):
        """Table 5.6: our work at 47.23 GFLOPs/s, 90.8x over [34]."""
        table = comparison_table(s=32)
        ours = table[-1]
        assert ours["gflops_per_s"] == pytest.approx(47.23, rel=0.10)
        assert ours["improvement"] == pytest.approx(90.8, rel=0.10)

    def test_improvement_ordering(self):
        table = comparison_table(s=32)
        improvements = [row["improvement"] for row in table]
        assert improvements[0] == pytest.approx(1.0)
        assert improvements == sorted(improvements)

    def test_our_entry_standalone(self):
        e = our_entry(s=32)
        assert e.gflops == pytest.approx(4.08, rel=0.01)


class TestRoofline:
    def test_ridge_point(self):
        model = RooflineModel(peak_gflops=100, bandwidth_gbps=10)
        assert model.ridge_point == pytest.approx(10.0)

    def test_attainable_capped(self):
        model = RooflineModel(peak_gflops=100, bandwidth_gbps=10)
        assert model.attainable_gflops(5) == 50
        assert model.attainable_gflops(50) == 100

    def test_transformer_is_memory_bound(self):
        """Section 4.2: ~0.25 ops/B is deep in the memory-bound region."""
        roof = accelerator_roofline()
        assert roof.is_memory_bound(0.25)

    def test_accelerator_peak(self):
        # 1024 PEs x 2 FLOP x 300 MHz = 614.4 GFLOPs.
        roof = accelerator_roofline()
        assert roof.peak_gflops == pytest.approx(614.4)

    def test_intensity_profile(self):
        rows = model_intensity_profile(ModelConfig(), seq_lens=(1, 32))
        assert rows[0]["intensity_macs_per_byte"] == pytest.approx(0.25, rel=0.01)
        assert rows[1]["gflops"] == pytest.approx(4.08, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            RooflineModel(peak_gflops=0, bandwidth_gbps=1)
        with pytest.raises(ValueError):
            RooflineModel(1, 1).attainable_gflops(0)
