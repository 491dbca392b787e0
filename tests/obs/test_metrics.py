"""MetricsRegistry unit tests and the IMCCounters/FFStats migrations."""

import pytest

from repro.dram import DDR3_1600
from repro.dram.counters import IMCCounters
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.fastforward import FFStats
from repro.sim.stats import Counter


class TestRegistry:
    def test_factories_are_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("imc.reads") is reg.counter("imc.reads")
        assert reg.histogram("imc.lat_ps") is reg.histogram("imc.lat_ps")
        assert reg.busy_tracker("imc.rq") is reg.busy_tracker("imc.rq")

    def test_cross_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(SimulationError):
            reg.histogram("x")

    def test_gauge_collisions_raise_both_ways(self):
        reg = MetricsRegistry()
        reg.gauge("g", lambda: 1)
        with pytest.raises(SimulationError):
            reg.gauge("g", lambda: 2)
        with pytest.raises(SimulationError):
            reg.counter("g")
        reg.counter("c")
        with pytest.raises(SimulationError):
            reg.gauge("c", lambda: 3)

    def test_attach_adopts_instrument_under_its_own_name(self):
        reg = MetricsRegistry()
        counter = Counter("adopted")  # analyze: allow[direct-instrument]
        reg.attach(counter)
        assert reg.get("adopted") is counter
        reg.attach(counter)  # re-attaching the same object is fine
        other = Counter("adopted")  # analyze: allow[direct-instrument]
        with pytest.raises(SimulationError):
            reg.attach(other)

    def test_snapshot_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b.count").add(2)
        reg.histogram("a.lat").record(8)
        reg.gauge("c.val", lambda: 7)
        snap = reg.snapshot()
        assert list(snap) == ["a.lat", "b.count", "c.val"]
        assert snap["a.lat"]["type"] == "histogram"
        assert snap["b.count"] == {"type": "counter", "value": 2}
        assert snap["c.val"] == {"type": "gauge", "value": 7}

    def test_gauges_are_read_at_snapshot_time(self):
        reg = MetricsRegistry()
        box = [1]
        reg.gauge("live", lambda: box[0])
        assert reg.snapshot()["live"]["value"] == 1
        box[0] = 42
        assert reg.snapshot()["live"]["value"] == 42

    def test_names_covers_instruments_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b", lambda: 0)
        assert reg.names() == ["a", "b"]


class TestIMCCountersMigration:
    def test_counters_register_into_supplied_registry(self):
        reg = MetricsRegistry()
        counters = IMCCounters(DDR3_1600, reg)
        assert counters.metrics is reg
        assert {"imc.reads", "imc.writes", "imc.read_latency_ps",
                "imc.row_hits", "imc.row_misses", "imc.read_queue",
                "imc.write_queue", "imc.any_queue"} <= set(reg.names())
        assert counters.reads is reg.get("imc.reads")

    def test_default_registry_created_when_omitted(self):
        counters = IMCCounters(DDR3_1600)
        assert isinstance(counters.metrics, MetricsRegistry)
        snap = counters.metrics.snapshot()
        assert snap["imc.reads"]["type"] == "counter"


class TestFFStatsMigration:
    def test_snapshot_schema(self):
        stats = FFStats()
        stats.lane_requests += 10
        stats.batched_requests += 2
        snap = stats.snapshot()
        assert snap == {"type": "ff_stats", "lane_requests": 10,
                        "batched_requests": 2}

    def test_register_into_exposes_live_gauges(self):
        stats = FFStats()
        reg = MetricsRegistry()
        stats.register_into(reg)
        assert reg.snapshot()["ff.lane_requests"]["value"] == 0
        stats.lane_requests = 5
        assert reg.snapshot()["ff.lane_requests"]["value"] == 5
