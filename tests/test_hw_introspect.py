"""Tests for the stall-attribution classifier, watchpoints and the
introspection surfacing (metrics, counters, dashboard, attribution)."""

import pytest

from repro.hw.controller import LatencyModel
from repro.hw.introspect import (
    STALL_CAUSES,
    FlightRecorder,
    StallInterval,
    Watchpoint,
    classify_stalls,
    counter_tracks,
    default_watchpoints,
    render_stall_dashboard,
    run_watchpoints,
    utilization_counters,
)
from repro.hw.trace import Timeline


@pytest.fixture(scope="module")
def lm():
    return LatencyModel()


def _program(lm, s):
    return lm.full_pass_program(s)


class TestConservation:
    """busy + sum(stall causes) + no_work == makespan, exactly."""

    @pytest.mark.parametrize("arch", ["A1", "A2", "A3"])
    @pytest.mark.parametrize("s", [8, 18, 32])
    def test_exact_per_engine_conservation(self, lm, arch, s):
        report = classify_stalls(_program(lm, s), arch)
        assert report.makespan > 0
        for engine, breakdown in report.engines.items():
            total = (
                breakdown.busy_cycles
                + sum(breakdown.stalls.values())
                + breakdown.no_work_cycles
            )
            assert total == report.makespan, engine
        report.verify_conservation()  # must not raise

    def test_intervals_match_breakdown_totals(self, lm):
        report = classify_stalls(_program(lm, 8), "A1")
        for engine, breakdown in report.engines.items():
            by_cause = {cause: 0.0 for cause in STALL_CAUSES}
            for iv in report.intervals_on(engine):
                by_cause[iv.cause] += iv.cycles
            for cause in breakdown.stalls:
                assert by_cause[cause] == breakdown.stalls[cause]
            assert by_cause["no_work"] == breakdown.no_work_cycles

    def test_verify_conservation_raises_on_corruption(self, lm):
        report = classify_stalls(_program(lm, 8), "A3")
        engine = next(iter(report.engines))
        bd = report.engines[engine]
        report.engines[engine] = type(bd)(
            engine=bd.engine,
            makespan=bd.makespan,
            busy_cycles=bd.busy_cycles + 1.0,
            stalls=bd.stalls,
            no_work_cycles=bd.no_work_cycles,
        )
        with pytest.raises(ValueError, match="not conservative"):
            report.verify_conservation()


class TestCauseAttribution:
    def test_a1_more_load_starved_than_a3_at_s8(self, lm):
        program = _program(lm, 8)
        a1 = classify_stalls(program, "A1").totals(".psa")["load_starved"]
        a3 = classify_stalls(program, "A3").totals(".psa")["load_starved"]
        assert a1 > a3  # strictly: prefetch hides load behind compute

    def test_a1_has_no_channel_contention(self, lm):
        # A1 never overlaps loads, so nothing serializes behind a LOAD.
        report = classify_stalls(_program(lm, 8), "A1")
        assert report.totals()["channel_contention"] == 0.0

    def test_a2_single_channel_contention_at_small_s(self, lm):
        # A2 prefetches every bundle on one channel: back-to-back LOADs
        # serialize, which is the paper's motivation for A3.
        report = classify_stalls(_program(lm, 8), "A2")
        assert report.totals()["channel_contention"] > 0.0

    def test_dominant_cause_on_psa_lanes(self, lm):
        report = classify_stalls(_program(lm, 8), "A1")
        assert report.dominant_cause(".psa") == "load_starved"

    def test_overhead_attributed_when_configured(self, lm):
        report = classify_stalls(
            _program(lm, 8), "A3",
            block_overhead=lm.calibration.block_overhead_cycles,
        )
        if lm.calibration.block_overhead_cycles > 0:
            assert report.totals()["overhead"] > 0.0

    def test_as_dict_round_trips(self, lm):
        import json

        payload = classify_stalls(_program(lm, 8), "A3").as_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["architecture"] == "A3"
        assert set(parsed["totals"]) == set(STALL_CAUSES)
        assert parsed["engines"]


class TestWatchpoints:
    def _timeline(self):
        tl = Timeline()
        tl.add("hbm0", "LW:enc1", 0, 100, kind="load")
        tl.add("slr0.psa0", "h0:MM1", 100, 200)
        tl.add("slr0.psa0", "h0:MM4", 500, 600)
        return tl

    def test_idle_trigger_fires_with_context(self):
        hits = run_watchpoints(
            self._timeline(),
            [Watchpoint("psa-idle", "idle", engine=r"\.psa", threshold=200)],
        )
        assert len(hits) == 1
        hit = hits[0]
        assert hit.engine == "slr0.psa0"
        assert hit.cycle == 500
        assert "idle 300" in hit.detail
        assert any(e.label == "h0:MM1" for e in hit.window)

    def test_idle_trigger_counts_lead_in(self):
        hits = run_watchpoints(
            self._timeline(),
            [Watchpoint("first", "idle", engine=r"\.psa", threshold=100)],
        )
        assert any(h.cycle == 100 for h in hits)

    def test_label_trigger_matches_regex(self):
        hits = run_watchpoints(
            self._timeline(),
            [Watchpoint("mm4", "label", pattern=r"MM4.*")],
        )
        assert len(hits) == 1
        assert "h0:MM4" in hits[0].detail

    def test_bandwidth_trigger_fires_on_quiet_window(self):
        tl = Timeline()
        tl.add("hbm0", "LW:a", 0, 100, kind="load")
        tl.add("hbm0", "LW:b", 900, 1000, kind="load")
        hits = run_watchpoints(
            tl,
            [Watchpoint("bw", "bandwidth", engine=r"^hbm",
                        threshold=0.5, window=200)],
        )
        assert hits
        assert all(h.engine == "hbm0" for h in hits)

    def test_watchpoint_validation(self):
        with pytest.raises(ValueError, match="unknown watchpoint kind"):
            Watchpoint("w", "bogus")
        with pytest.raises(ValueError, match="positive threshold"):
            Watchpoint("w", "idle", threshold=0)
        with pytest.raises(ValueError, match="pattern"):
            Watchpoint("w", "label")
        with pytest.raises(ValueError, match="busy-fraction"):
            Watchpoint("w", "bandwidth", threshold=2.0, window=10)
        with pytest.raises(ValueError, match="positive window"):
            Watchpoint("w", "bandwidth", threshold=0.5)

    def test_flight_recorder_bounded(self):
        rec = FlightRecorder(capacity=2)
        tl = self._timeline()
        for event in tl.events:
            rec.record(event)
        assert len(rec) == 2
        assert rec.dropped == 1
        labels = [e.label for e in rec.snapshot()]
        assert labels == ["h0:MM1", "h0:MM4"]

    def test_flight_recorder_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_default_watchpoints_on_real_program(self, lm):
        from repro.hw.program import trace_program

        timeline = trace_program(
            _program(lm, 8), "A1", lm.calibration.block_overhead_cycles
        )
        hits = run_watchpoints(
            timeline, default_watchpoints(timeline, idle_fraction=0.01)
        )
        assert hits  # A1 at s=8 is riddled with long PSA idles
        assert default_watchpoints(Timeline()) == []


class TestCounters:
    def test_bucketed_utilization(self):
        tl = Timeline()
        tl.add("e", "a", 0, 50)
        tl.add("e", "b", 150, 200)
        samples = utilization_counters(tl, bucket_cycles=100)["e"]
        assert samples == [(0.0, 0.5), (100.0, 0.5)]

    def test_counter_tracks_named_by_role(self):
        tl = Timeline()
        tl.add("hbm0", "LW", 0, 10, kind="load")
        tl.add("slr0.psa0", "C", 10, 20)
        tracks = counter_tracks(tl, bucket_cycles=10)
        assert "bandwidth:hbm0" in tracks
        assert "utilization:slr0.psa0" in tracks

    def test_empty_timeline_yields_no_tracks(self):
        assert utilization_counters(Timeline()) == {}

    def test_rejects_bad_bucket(self):
        tl = Timeline()
        tl.add("e", "a", 0, 10)
        with pytest.raises(ValueError):
            utilization_counters(tl, bucket_cycles=0)


class TestStallMetrics:
    """repro.hw.stall.cycles rides record_program_metrics, gated on
    telemetry being enabled."""

    def test_emitted_when_enabled(self, lm):
        from repro import obs
        from repro.obs.probe import record_program_metrics

        with obs.telemetry() as session:
            record_program_metrics(_program(lm, 8), architecture="A1")
            sampled = {
                key: value
                for key, value in session.metrics.as_dict().items()
                if key.startswith("repro.hw.stall.cycles{")
            }
        assert sampled
        assert any("cause=load_starved" in key for key in sampled)
        # the per-engine sums reproduce the classifier exactly
        report = classify_stalls(_program(lm, 8), "A1")
        psa0 = "slr0.psa0"
        for cause, cycles in report.engines[psa0].stalls.items():
            key = f"repro.hw.stall.cycles{{cause={cause},engine={psa0}}}"
            if cycles > 0:
                assert sampled[key] == cycles
            else:
                assert key not in sampled

    def test_null_registry_stays_free(self, lm):
        from repro.obs.metrics import NULL_REGISTRY
        from repro.obs.probe import record_program_metrics

        assert not NULL_REGISTRY.enabled
        result = record_program_metrics(
            _program(lm, 8), architecture="A1", registry=NULL_REGISTRY
        )
        assert result is None
        assert list(NULL_REGISTRY.collect()) == []


class TestDashboard:
    def test_renders_all_sections(self, lm):
        report = classify_stalls(_program(lm, 8), "A1")
        art = render_stall_dashboard(report, width=20)
        assert "stall attribution: A1" in art
        assert "slr0.psa0" in art
        for cause in STALL_CAUSES:
            assert cause in art
        assert "watchpoint hits: none" in art

    def test_renders_hits(self, lm):
        from repro.hw.introspect import WatchpointHit

        report = classify_stalls(_program(lm, 8), "A1")
        hit = WatchpointHit("psa-idle", 123.0, "slr0.psa0", "idle 99 cycles")
        art = render_stall_dashboard(report, hits=[hit])
        assert "watchpoint hits (1):" in art
        assert "psa-idle" in art


class TestAttributionStallSection:
    def test_report_carries_per_arch_summaries(self):
        from repro.bench.attribution import build_attribution_report

        report = build_attribution_report(s=8)
        archs = [summ.architecture for summ in report.stalls]
        assert archs == ["A1", "A2", "A3"]
        a1 = report.stall_summary("A1")
        a3 = report.stall_summary("A3")
        assert (
            a1.psa_stall_cycles("load_starved")
            > a3.psa_stall_cycles("load_starved")
        )
        text = report.format()
        assert "stall-cause attribution" in text
        assert "A1->A3 shift" in text

    def test_unknown_architecture_raises(self):
        from repro.bench.attribution import build_attribution_report

        with pytest.raises(KeyError):
            build_attribution_report(s=8).stall_summary("A9")


class TestInspectCli:
    def test_text_dashboard(self, capsys):
        from repro.cli import main

        assert main(["inspect", "--seq", "8", "--arch", "A1"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution: A1" in out
        assert "Fig 5.2 context" in out

    def test_json_payload(self, capsys):
        import json

        from repro.cli import main

        assert main(["inspect", "--seq", "8", "--arch", "A3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["architecture"] == "A3"
        assert payload["s"] == 8
        assert "watchpoint_hits" in payload
        assert set(payload["totals"]) == set(STALL_CAUSES)


class TestClassifierEdgeCases:
    def test_stall_interval_cycles(self):
        iv = StallInterval("e", 10, 25, "dependency")
        assert iv.cycles == 15

    def test_reuses_supplied_schedule(self, lm):
        from repro.hw.program import trace_program_with_schedule

        program = _program(lm, 8)
        overhead = lm.calibration.block_overhead_cycles
        timeline, sched = trace_program_with_schedule(program, "A2", overhead)
        report = classify_stalls(
            program, "A2", overhead, timeline=timeline, sched=sched
        )
        fresh = classify_stalls(program, "A2", overhead)
        assert report.totals() == fresh.totals()


def _quadratic_reference(program, architecture):
    """The classifier's original gap x segment walk: every idle gap
    rescans the causal segments from the first one."""
    from repro.hw.introspect import _causal_segments
    from repro.hw.program import program_unit_spans, trace_program_with_schedule

    overhead = program.fabric.calibration.block_overhead_cycles
    timeline, sched = trace_program_with_schedule(program, architecture, overhead)
    spans, _ = program_unit_spans(program, architecture, overhead, sched=sched)
    segments = _causal_segments(spans)
    stalls_by_engine, intervals = {}, []
    for engine in timeline.engines():
        stalls = {}
        for g0, g1 in timeline.idle_gaps(engine):
            for s0, s1, cause, block in segments:
                lo, hi = max(g0, s0), min(g1, s1)
                if hi > lo:
                    stalls[cause] = stalls.get(cause, 0.0) + hi - lo
                    intervals.append(StallInterval(engine, lo, hi, cause, block))
                if s0 >= g1:
                    break
        stalls_by_engine[engine] = stalls
    return stalls_by_engine, intervals


class TestLinearSweepMatchesQuadraticReference:
    @pytest.mark.parametrize("arch", ["A1", "A2", "A3"])
    def test_same_intervals_and_sums(self, ir_program, arch):
        report = classify_stalls(ir_program, arch)
        stalls_by_engine, intervals = _quadratic_reference(ir_program, arch)
        stall_ivs = [iv for iv in report.intervals if iv.cause != "no_work"]
        assert stall_ivs == sorted(intervals, key=lambda iv: (iv.engine, iv.start))
        for engine, breakdown in report.engines.items():
            nonzero = {c: v for c, v in breakdown.stalls.items() if v}
            assert nonzero == stalls_by_engine[engine], engine
