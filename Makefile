# Developer entry points.

.PHONY: install test bench examples verify all

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

bench:
	pytest benchmarks/ --benchmark-only

verify:
	python -m repro.cli verify

# fit_calibration.py is left out: it refits the calibration constants
# and takes about 5 minutes on one core.  Run it by hand.
examples:
	python examples/quickstart.py
	python examples/latency_exploration.py
	python examples/design_space_exploration.py
	python examples/batch_transcription.py
	python examples/schedule_gallery.py
	python examples/quantization_study.py
	python examples/retargetability.py
	python examples/hls_pragma_study.py
	python examples/streaming_asr.py
	python examples/fault_injection.py
	python examples/fleet_scaling.py
	python examples/noise_robustness.py
	python examples/train_toy_asr.py

all: test bench
