"""Smoke tests: the runnable examples must execute cleanly.

The slow ones (training, full quickstart on paper-size weights) are
exercised by the benchmarks instead; here we run the quick analysis
examples end to end and sanity-check their stdout.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_imports(path):
    """Every example imports cleanly (its ``main`` sits behind a
    ``__main__`` guard), so a deleted or renamed import fails here even
    for the examples too slow to run in the smoke tests."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExampleScripts:
    def test_latency_exploration(self):
        out = run_example("latency_exploration.py")
        assert "Table 5.1" in out
        assert "crossover: compute exceeds load from s = 19" in out

    def test_design_space_exploration(self):
        out = run_example("design_space_exploration.py")
        assert "binding resource: LUT" in out
        assert "best feasible design: 2 x 64" in out

    def test_schedule_gallery(self):
        out = run_example("schedule_gallery.py")
        assert "Figs 4.8-4.10" in out
        assert "FFN / MHA latency ratio" in out

    def test_hls_pragma_study(self):
        out = run_example("hls_pragma_study.py")
        assert "ARRAY_PARTITION" in out

    def test_retargetability(self):
        out = run_example("retargetability.py")
        assert "qi_2021 [29]" in out
        assert "vaswani_big" in out

    def test_quantization_study(self):
        out = run_example("quantization_study.py")
        assert "int8" in out
        assert "future-work prediction" in out

    @pytest.mark.slow
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Recognized text" in out
        assert "end-to-end (modeled)" in out

    @pytest.mark.slow
    def test_batch_transcription(self):
        out = run_example("batch_transcription.py")
        assert "energy efficiency" in out

    @pytest.mark.slow
    def test_streaming_asr(self):
        out = run_example("streaming_asr.py")
        assert "real-time factor" in out
