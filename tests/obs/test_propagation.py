"""Cross-layer causality on a real Figure-3 point: operator, JAFAR device,
memory controller, and DRAM bank spans all share one trace id, in both
fast-forward and exact modes."""

import pytest

from repro.analysis import measure_point
from repro.obs.tracer import tracing
from repro.sim import fastforward as ffm

ROWS = 1 << 13

#: Track suffix -> the simulated layer it belongs to.
LAYER_OF = {
    "query": "operator",
    "driver": "driver",
    "cpu": "cpu",
    "imc": "controller",
}


def _trace_point(exact: bool):
    with tracing() as tracer:
        if exact:
            with ffm.exact_mode():
                point = measure_point(0.5, ROWS)
        else:
            point = measure_point(0.5, ROWS)
        tracer.flush()
    return tracer, point


def _layers(tracer):
    seen = set()
    for event in tracer.events:
        track = event.track
        if ".jafar." in track:
            seen.add("device")
        elif ".bank" in track:
            seen.add("bank")
        else:
            layer = LAYER_OF.get(track.rpartition(".")[2])
            if layer:
                seen.add(layer)
    return seen


@pytest.mark.parametrize("exact", [False, True], ids=["fast-forward", "exact"])
class TestCausalPropagation:
    def test_one_trace_id_spans_all_four_layers(self, exact):
        tracer, _ = _trace_point(exact)
        trace_ids = {e.trace_id for e in tracer.events}
        assert trace_ids == {1}, "every event inherits the root's trace id"
        assert {"operator", "device", "controller",
                "bank"} <= _layers(tracer)

    def test_stack_balanced_and_spans_well_formed(self, exact):
        tracer, _ = _trace_point(exact)
        assert tracer.depth == 0
        open_spans = {}
        for event in tracer.events:
            if event.ph == "B":
                open_spans[event.span_id] = event
            elif event.ph == "E":
                begin = open_spans.pop(event.span_id)
                assert event.ts_ps >= begin.ts_ps
                assert event.track == begin.track
            elif event.ph == "X":
                assert event.dur_ps >= 0
        assert open_spans == {}, "every B has a matching E"

    def test_parent_ids_resolve_within_the_trace(self, exact):
        tracer, _ = _trace_point(exact)
        span_ids = {e.span_id for e in tracer.events if e.ph == "B"}
        for event in tracer.events:
            if event.parent_id:
                assert event.parent_id in span_ids

    def test_nothing_dropped_at_this_scale(self, exact):
        tracer, _ = _trace_point(exact)
        assert tracer.dropped == 0
        assert tracer.events


class TestFastForwardSpans:
    def test_fused_lanes_emit_ff_summary_spans(self):
        if not ffm.FF.on:
            pytest.skip("fast-forward disabled (REPRO_EXACT or simsan)")
        tracer, _ = _trace_point(exact=False)
        ff_spans = [e for e in tracer.events
                    if e.args and e.args.get("ff") is True]
        assert ff_spans, "fast-forwarded work must appear as ff=True spans"
        names = {e.name for e in ff_spans}
        assert names == {"jafar.fused_row", "imc.fused_stream"}
        assert all(e.ph == "X" for e in ff_spans)

    def test_exact_mode_has_no_ff_spans(self):
        tracer, _ = _trace_point(exact=True)
        assert not any(e.args and e.args.get("ff") for e in tracer.events)

    def test_modes_agree_on_simulated_results(self):
        _, ff_point = _trace_point(exact=False)
        _, exact_point = _trace_point(exact=True)
        assert ff_point.cpu_ps == exact_point.cpu_ps
        assert ff_point.jafar_ps == exact_point.jafar_ps
        assert ff_point.matches == exact_point.matches
