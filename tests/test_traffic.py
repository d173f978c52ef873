"""Unit tests for the traffic subsystem: arrival processes, tenant
mixes, hotspot drift, and the reworked ClientLoad admission paths."""

import math

import pytest

from repro.protocols.runtime.load import ClientLoad
from repro.sim.monitor import Histogram
from repro.sim.rng import RngRegistry
from repro.traffic import (
    ConstantCurve,
    ConstantRate,
    DiurnalCurve,
    FlashCrowdCurve,
    HotspotDrift,
    MMPPProcess,
    PoissonProcess,
    Tenant,
    TenantMix,
    TrafficSpec,
    gold_silver_bronze,
)
from repro.workloads import make_workload


def stream(name, seed=11):
    return RngRegistry(seed).stream(name)


class TestConstantRate:
    def test_matches_legacy_metronome(self):
        # The historical hot loop: next += 1.0/rate per arrival.
        rate = 937.0
        step = 1.0 / rate
        expected, t = [], 0.0
        while t <= 0.25:
            expected.append(t)
            t += step
        process = ConstantRate(rate)
        assert process.take_until(0.25) == expected

    def test_chunked_equals_single_drain(self):
        single = ConstantRate(1234.0).take_until(0.5)
        chunked_proc = ConstantRate(1234.0)
        chunked = []
        for i in range(1, 11):
            chunked.extend(chunked_proc.take_until(0.05 * i))
        assert chunked == single

    def test_drop_until_matches_legacy_aging(self):
        rate = 800.0
        process = ConstantRate(rate)
        # Legacy: missed = int((horizon - next) * rate); next += missed/rate.
        missed = process.drop_until(0.1)
        assert missed == int(0.1 * rate)
        assert process.next_arrival == pytest.approx(missed / rate)
        assert process.drop_until(0.1) in (0, 1)  # nothing much left

    def test_max_n_caps_and_resumes(self):
        process = ConstantRate(1000.0)
        first = process.take_until(0.1, max_n=25)
        assert len(first) == 25
        rest = process.take_until(0.1)
        assert len(first) + len(rest) in (100, 101)
        assert rest[0] > first[-1]

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ConstantRate(0.0)
        with pytest.raises(ValueError):
            ConstantRate(-5.0)


class TestPoissonProcess:
    def test_deterministic_from_stream(self):
        a = PoissonProcess(ConstantCurve(2000.0), stream("p")).take_until(1.0)
        b = PoissonProcess(ConstantCurve(2000.0), stream("p")).take_until(1.0)
        assert a == b

    def test_chunked_equals_single_drain(self):
        single = PoissonProcess(ConstantCurve(1500.0), stream("p")).take_until(1.0)
        proc = PoissonProcess(ConstantCurve(1500.0), stream("p"))
        chunked = []
        for i in range(1, 21):
            chunked.extend(proc.take_until(0.05 * i, max_n=37))
        chunked.extend(proc.take_until(1.0))
        assert chunked == single

    def test_rate_is_roughly_right(self):
        times = PoissonProcess(ConstantCurve(3000.0), stream("p")).take_until(2.0)
        assert 5200 <= len(times) <= 6800  # 6000 expected, generous slack
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_drop_until_is_strict_and_preserves_pending(self):
        proc = PoissonProcess(ConstantCurve(1000.0), stream("p"))
        dropped = proc.drop_until(0.5)
        assert dropped > 300
        times = proc.take_until(1.0)
        assert times and times[0] >= 0.5

    def test_thinning_follows_the_curve(self):
        # A flash crowd should put most arrivals inside the spike window.
        curve = FlashCrowdCurve(100.0, 5000.0, start=0.4, duration=0.4, ramp=0.05)
        times = PoissonProcess(curve, stream("p")).take_until(1.2)
        inside = [t for t in times if 0.4 <= t <= 0.8]
        assert len(inside) > 0.8 * len(times)


class TestMMPPProcess:
    def test_deterministic_and_monotone(self):
        states = ((3000.0, 0.1), (200.0, 0.2))
        a = MMPPProcess(states, stream("m")).take_until(2.0)
        b = MMPPProcess(states, stream("m")).take_until(2.0)
        assert a == b
        assert all(y >= x for x, y in zip(a, a[1:]))

    def test_idle_state_produces_gaps(self):
        # Zero-rate state: arrivals only while the busy state holds.
        times = MMPPProcess(((4000.0, 0.05), (0.0, 0.05)), stream("m")).take_until(1.0)
        assert times  # the busy state fires
        busy_fraction = len(times) / 4000.0
        assert busy_fraction < 0.9  # far fewer than an always-on 4000 tps

    def test_validation(self):
        with pytest.raises(ValueError):
            MMPPProcess((), stream("m"))
        with pytest.raises(ValueError):
            MMPPProcess(((0.0, 0.1),), stream("m"))  # no positive rate
        with pytest.raises(ValueError):
            MMPPProcess(((100.0, 0.0),), stream("m"))  # holding must be > 0


def peek_drain(proc, now, max_n=None):
    """``take_until`` as arrival-by-arrival ``peek()`` pulls (one
    ``_generate()`` call each): the reference for the inlined loops."""
    times = []
    n = 0
    while proc.peek() <= now:
        if n == max_n:
            break
        times.append(proc._pending)
        proc._pending = None
        n += 1
    return times


GENERATED = {
    "poisson": lambda rng: PoissonProcess(ConstantCurve(1500.0), rng),
    "flash": lambda rng: PoissonProcess(
        FlashCrowdCurve(300.0, 4000.0, start=0.3, duration=0.4, ramp=0.05), rng
    ),
    "diurnal": lambda rng: PoissonProcess(DiurnalCurve(1500.0, 0.6, 0.5), rng),
    "mmpp": lambda rng: MMPPProcess(((3000.0, 0.05), (200.0, 0.1)), rng),
    "mmpp-idle": lambda rng: MMPPProcess(((4000.0, 0.05), (0.0, 0.05)), rng),
}

#: (now, max_n) call sequences: one drain, chunks, capped chunks with a
#: final sweep, zero caps and a clock that does not advance, and the
#: perfbench micro's unbounded-horizon capped pulls.
DRAINS = {
    "single": [(1.0, None)],
    "chunked": [(0.05 * i, None) for i in range(1, 21)],
    "capped": [(0.05 * i, 37) for i in range(1, 21)] + [(1.0, None)],
    "stalled": [(0.2, 0), (0.2, 5), (0.1, None), (0.2, None), (0.2, None), (0.6, 1)],
    "micro": [(math.inf, 1000), (math.inf, 1000)],
}


@pytest.mark.parametrize("kind", GENERATED)
@pytest.mark.parametrize("drain", DRAINS)
def test_inlined_take_until_equals_peek_draining(kind, drain):
    inlined, reference = GENERATED[kind](stream("a")), GENERATED[kind](stream("a"))
    total = 0
    for now, max_n in DRAINS[drain]:
        times = inlined.take_until(now, max_n)
        assert times == peek_drain(reference, now, max_n)
        total += len(times)
        # The surviving arrival, the cursor and the stream: all equal, so
        # any later call continues identically.
        assert inlined._pending == reference._pending is not None
        assert inlined._t == reference._t
        if kind.startswith("mmpp"):
            assert inlined._state == reference._state
            assert inlined._state_until == reference._state_until
        assert inlined.rng.getstate() == reference.rng.getstate()
    assert total > 0
    # ...including a mixed one: drop through peek(), then the inlined loop.
    horizon = inlined._pending + 0.1
    assert inlined.drop_until(horizon) == reference.drop_until(horizon)
    assert inlined.take_until(horizon + 0.1) == peek_drain(reference, horizon + 0.1)


class TestRateCurves:
    def test_diurnal_shape_and_peak(self):
        curve = DiurnalCurve(1000.0, amplitude=0.5, period=1.0)
        assert curve.rate(0.25) == pytest.approx(1500.0)
        assert curve.rate(0.75) == pytest.approx(500.0)
        assert curve.peak == pytest.approx(1500.0)
        with pytest.raises(ValueError):
            DiurnalCurve(1000.0, amplitude=1.0)

    def test_flash_crowd_trapezoid(self):
        curve = FlashCrowdCurve(100.0, 900.0, start=1.0, duration=1.0, ramp=0.25)
        assert curve.rate(0.5) == 100.0
        assert curve.rate(1.125) == pytest.approx(500.0)  # mid-ramp
        assert curve.rate(1.5) == 900.0
        assert curve.rate(2.5) == 100.0
        assert curve.peak == 900.0
        with pytest.raises(ValueError):
            FlashCrowdCurve(100.0, 900.0, start=0.0, duration=0.1, ramp=0.2)


class TestTenantMix:
    def test_shares_split_attribution(self):
        mix = gold_silver_bronze()
        rng = stream("tenants")
        counts = [0, 0, 0]
        for _ in range(20_000):
            counts[mix.pick(rng)] += 1
        assert counts[0] / 20_000 == pytest.approx(0.2, abs=0.02)
        assert counts[2] / 20_000 == pytest.approx(0.5, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantMix([])
        with pytest.raises(ValueError):
            TenantMix([Tenant("a", 1.0), Tenant("a", 1.0)])
        with pytest.raises(ValueError):
            Tenant("a", share=0.0)
        with pytest.raises(ValueError):
            Tenant("a", share=1.0, priority=-1)

    def test_metadata(self):
        mix = gold_silver_bronze()
        assert mix.names == ("gold", "silver", "bronze")
        assert mix.priorities == (3, 2, 1)
        assert [t["name"] for t in mix.describe()] == ["gold", "silver", "bronze"]


class TestHotspotDrift:
    def test_offset_steps_by_stride(self):
        drift = HotspotDrift(rotate_interval=0.5, stride=1000)
        assert drift.offset_at(0.0) == 0
        assert drift.offset_at(0.49) == 0
        assert drift.offset_at(0.5) == 1000
        assert drift.offset_at(1.7) == 3000

    def test_drifted_workload_rotates_hot_keys(self):
        base = make_workload("ycsb-a", n_rows=10_000)
        drifted = make_workload(
            "ycsb-a", n_rows=10_000, hotspot=HotspotDrift(0.5, 997)
        )
        gen_base = base.generator_for(stream("w"))
        gen_drift = drifted.generator_for(stream("w"))
        # Same rng stream, same draw order: keys differ only by the
        # time-dependent offset (mod n_rows).
        for now, want_offset in ((0.1, 0), (0.6, 997), (1.2, 1994)):
            tx_b = gen_base(now)
            tx_d = gen_drift(now)
            assert tx_d.params["key"] == (tx_b.params["key"] + want_offset) % 10_000
            assert tx_d.kind == tx_b.kind

    def test_generate_matches_generator_closure(self):
        drift = HotspotDrift(0.5, 997)
        workload = make_workload("ycsb-a", n_rows=10_000, hotspot=drift)
        from_closure = workload.generator_for(stream("w"))(0.7)
        from_method = workload.generate(stream("w"), now=0.7)
        assert from_method.params["key"] == from_closure.params["key"]


class TestTrafficSpec:
    def test_constant_spec_is_the_metronome(self):
        spec = TrafficSpec.constant(1200.0, n_groups=3)
        process = spec.process_for(1, stream("g1"))
        assert isinstance(process, ConstantRate)
        assert process.rate == 1200.0
        assert spec.offered_load(range(3)) == {0: 1200.0, 1: 1200.0, 2: 1200.0}

    def test_peak_rate_fallback(self):
        spec = TrafficSpec.constant({0: 500.0, 1: 900.0}, n_groups=2)
        assert spec.peak_rate(0) == 500.0
        assert spec.peak_rate(7) == 900.0  # unknown gid: max envelope

    def test_mmpp_peak_is_max_state_rate(self):
        spec = TrafficSpec.mmpp(((4000.0, 0.25), (800.0, 0.5)), n_groups=2)
        assert spec.peak_rate(0) == 4000.0

    def test_flash_crowd_only_heats_hot_groups(self):
        spec = TrafficSpec.flash_crowd(
            1000.0, 4000.0, start=0.5, duration=1.0, n_groups=3, hot_groups=(1,)
        )
        assert spec.peak_rate(1) == 4000.0
        assert spec.peak_rate(0) == 1000.0
        assert spec.describe()["detail"]["hot_groups"] == [1]

    def test_describe_is_json_friendly(self):
        import json

        spec = TrafficSpec.mmpp(
            ((4000.0, 0.25), (800.0, 0.5)),
            n_groups=2,
            tenants=gold_silver_bronze(),
            hotspot=HotspotDrift(0.4, 350_003),
        )
        doc = spec.describe()
        json.dumps(doc, sort_keys=True)  # must not raise
        assert doc["name"] == "mmpp"
        assert len(doc["tenants"]) == 3


def make_load(**kwargs):
    kwargs.setdefault("rng", stream("load"))
    return ClientLoad(make_workload("ycsb-a"), **kwargs)


class TestClientLoadProcesses:
    def test_explicit_constant_process_matches_rate_arg(self):
        by_rate = make_load(rate=1000.0, rng=stream("load"))
        by_process = make_load(process=ConstantRate(1000.0), rng=stream("load"))
        a = by_rate.take(now=0.25)
        b = by_process.take(now=0.25)
        assert [t.created_at for t in a] == [t.created_at for t in b]
        assert [t.params for t in a] == [t.params for t in b]

    def test_requires_rate_or_process(self):
        with pytest.raises(ValueError):
            make_load()
        with pytest.raises(ValueError):
            make_load(rate=0.0)

    def test_tenants_require_their_own_stream(self):
        with pytest.raises(ValueError):
            make_load(rate=100.0, tenants=gold_silver_bronze())

    def test_offered_equals_admitted_plus_dropped_simple(self):
        load = make_load(rate=1000.0, queue_seconds=0.02)
        load.take(now=0.0)
        load.take(now=1.0)  # most of the second ages out
        assert load.offered == load.admitted + load.dropped
        assert load.dropped > 900

    def test_buffered_accounting_with_queue_remainder(self):
        load = make_load(
            process=PoissonProcess(ConstantCurve(2000.0), stream("arrivals")),
            queue_seconds=0.5,
        )
        taken = len(load.take(now=0.2, max_n=50))
        assert taken == 50
        # Remainder is still queued (inside the admission window), so
        # offered > admitted with nothing dropped yet.
        assert load.offered > load.admitted == 50
        assert load.dropped == 0

    def test_aging_interacts_with_max_n_cap(self):
        load = make_load(
            process=PoissonProcess(ConstantCurve(2000.0), stream("arrivals")),
            queue_seconds=0.05,
        )
        load.take(now=0.2, max_n=10)  # 10 admitted, rest queued
        load.take(now=1.0, max_n=10)  # queue aged out, fresh tail admitted
        assert load.dropped > 0
        queued = load.offered - load.admitted - load.dropped
        assert queued >= 0
        assert all(
            t.created_at >= 0.95 for t in load.take(now=1.0)
        )  # survivors are fresh

    def test_chunked_takes_are_deterministic_per_process(self):
        def drain(step_count):
            load = make_load(
                process=PoissonProcess(ConstantCurve(1500.0), stream("arrivals")),
                rng=stream("load"),
                queue_seconds=10.0,  # no aging: pure accumulation check
            )
            out = []
            for i in range(1, step_count + 1):
                out.extend(load.take(now=i * (1.0 / step_count)))
            return [(t.created_at, t.params["key"]) for t in out]

        assert drain(4) == drain(20)

    def test_priority_shedding_prefers_gold(self):
        mix = gold_silver_bronze()
        load = make_load(
            process=PoissonProcess(ConstantCurve(4000.0), stream("arrivals")),
            tenants=mix,
            tenant_rng=stream("tenants"),
            queue_seconds=0.02,
        )
        # Tight cap: admit far less than offered, repeatedly, so the
        # low-priority backlog ages out while gold keeps flowing.
        for i in range(1, 21):
            load.take(now=i * 0.05, max_n=20)
        gold, silver, bronze = range(3)
        assert load.dropped_by_tenant[bronze] > load.dropped_by_tenant[gold]
        assert load.offered == load.admitted + load.dropped + sum(
            len(q) for q in load._queues
        )
        # Gold admission ratio strictly better than bronze's.
        gold_ratio = load.admitted_by_tenant[gold] / load.offered_by_tenant[gold]
        bronze_ratio = (
            load.admitted_by_tenant[bronze] / load.offered_by_tenant[bronze]
        )
        assert gold_ratio > bronze_ratio

    def test_tenant_stamped_on_transactions(self):
        load = make_load(
            process=ConstantRate(500.0),
            tenants=gold_silver_bronze(),
            tenant_rng=stream("tenants"),
        )
        txns = load.take(now=0.1)
        assert txns
        assert {t.tenant for t in txns} <= {0, 1, 2}


class TestP999:
    def test_histogram_p999_nearest_rank(self):
        hist = Histogram("lat")
        for i in range(1, 2001):
            hist.observe(i / 1000.0)
        assert hist.p99 == pytest.approx(1.98)
        assert hist.p999 == pytest.approx(1.999)
        assert hist.p999 >= hist.p99 >= hist.p50

    def test_empty_histogram(self):
        assert Histogram("lat").p999 == 0.0


class TestDiurnalCompositionSanity:
    def test_diurnal_poisson_mean_tracks_curve(self):
        curve = DiurnalCurve(2000.0, amplitude=0.8, period=2.0)
        times = PoissonProcess(curve, stream("p")).take_until(2.0)
        # Mean over a full period is the base rate.
        assert len(times) == pytest.approx(4000, rel=0.15)
        # Crest quarter (~t in [0, 1]) must outdraw the trough quarter.
        crest = sum(1 for t in times if 0.25 <= t < 0.75)
        trough = sum(1 for t in times if 1.25 <= t < 1.75)
        assert crest > 2 * trough
