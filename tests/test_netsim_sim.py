"""The discrete-event packet simulator and its LossProcess seam."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lossmodel import CongestionLossProcess
from repro.netsim.sim import (
    AIMDController,
    CongestionSimulator,
    EventScheduler,
    Host,
    OnOffCBR,
    Pacer,
    Packet,
    ProbeTap,
    RateProber,
    SimLink,
)
from repro.netsim.sim import simulator as simulator_module


#: Event times and follow-up delays drawn from small exact-binary sets,
#: so schedules are dense with exact-time ties (``d = 0`` included).
EVENT_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
FOLLOW_UP_DELAYS = st.lists(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), max_size=3
)


class TestClockAndScheduler:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        events=st.lists(
            st.tuples(EVENT_TIMES, st.lists(FOLLOW_UP_DELAYS, max_size=3)),
            min_size=1,
            max_size=25,
        )
    )
    def test_dispatch_order_and_time_properties(self, events):
        """Dispatch is sorted by (time, push order); ``now`` never falls.

        Each drawn event carries follow-up plans: on dispatch it pushes
        one follow-up per plan at ``now + plan[0]``, which in turn pushes
        ``plan[1:]`` as its own single plan, so callbacks schedule into
        the present and the future while the loop runs.
        """
        sched = EventScheduler()
        pushed = []
        dispatched = []
        seen_now = []

        def push(time, plans):
            key = (time, len(pushed))
            pushed.append(key)
            sched.schedule(time, fire, key, plans)

        def fire(key, plans):
            assert sched.now == key[0]
            seen_now.append(sched.now)
            dispatched.append(key)
            for plan in plans:
                if plan:
                    push(sched.now + plan[0], [plan[1:]])

        for time, plans in events:
            push(time, plans)
        sched.run_until_idle()

        assert dispatched == sorted(pushed)
        assert seen_now == sorted(seen_now)
        assert sched.events_dispatched == len(dispatched)
        assert len(sched) == 0

    def test_scheduling_at_nan_raises(self):
        """A NaN key would break heap order without a word; refuse it."""
        with pytest.raises(ValueError):
            EventScheduler().schedule(float("nan"), lambda: None)

    def test_dispatch_rejects_time_running_backwards(self):
        sched = EventScheduler()
        sched.schedule(5.0, lambda: None)
        sched.run_until_idle()
        # bypass schedule()'s check: the loop's own check must fire
        heapq.heappush(sched._heap, (1.0, 99, lambda: None, ()))
        with pytest.raises(ValueError, match="backwards"):
            sched.run_until_idle()
        assert sched.now == 5.0 and sched.events_dispatched == 1

    def test_start_sets_now(self):
        sched = EventScheduler(start=3.0)
        assert sched.now == 3.0
        with pytest.raises(ValueError):
            sched.schedule(2.0, lambda: None)

    def test_events_fire_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(3.0, fired.append, "c")
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(2.0, fired.append, "b")
        sched.run_until_idle()
        assert fired == ["a", "b", "c"]
        assert sched.events_dispatched == 3

    def test_simultaneous_events_fire_in_scheduling_order(self):
        """Tie-break is the push sequence — the determinism keystone."""
        sched = EventScheduler()
        fired = []
        for tag in range(10):
            sched.schedule(1.0, fired.append, tag)
        sched.run_until_idle()
        assert fired == list(range(10))

    def test_horizon_is_inclusive_and_heap_reusable(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, fired.append, "early")
        sched.schedule(2.0, fired.append, "at")
        sched.schedule(2.5, fired.append, "late")
        sched.run_until(2.0)
        assert fired == ["early", "at"] and len(sched) == 1
        sched.run_until_idle()
        assert fired == ["early", "at", "late"]

    def test_scheduling_into_the_past_raises(self):
        sched = EventScheduler()
        sched.schedule(5.0, lambda: None)
        sched.run_until_idle()
        with pytest.raises(ValueError):
            sched.schedule(4.0, lambda: None)

    def test_finite_horizon_leaves_now_at_horizon(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.run_until(2.5)
        assert sched.now == 2.5
        sched.run_until(2.5)  # a horizon at now is allowed
        sched.run_until_idle()  # nothing queued: now stays put
        assert sched.now == 2.5

    def test_run_until_nan_raises(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="nan"):
            sched.run_until(float("nan"))
        assert sched.events_dispatched == 0 and sched.now == 0.0

    def test_run_until_before_now_raises(self):
        sched = EventScheduler()
        sched.run_until(3.0)
        with pytest.raises(ValueError, match="already at 3.0"):
            sched.run_until(2.0)
        assert sched.now == 3.0


class TestPacer:
    def test_starts_full_then_paces(self):
        pacer = Pacer(rate=2.0, bucket=1.0)
        assert pacer.pace(0.0, 2.0, 1.0) == (True, 0.5)   # bucket starts full
        assert pacer.pace(0.0, 2.0, 1.0) == (False, 0.5)  # and is now empty
        assert pacer.pace(0.5, 2.0, 1.0)[0]

    def test_bucket_caps_accrual(self):
        pacer = Pacer(rate=10.0, bucket=2.0)
        # 1000 slots accrue only the bucket's 2 tokens: spending them
        # leaves a full 2-token wait
        assert pacer.pace(100.0, 10.0, 2.0) == (True, 100.0 + 2.0 / 10.0)

    def test_zero_rate_never_ready(self):
        pacer = Pacer(rate=0.0, bucket=1.0)
        assert pacer.pace(0.0, 0.0, 1.0) == (True, math.inf)

    def test_ready_time_always_advances(self):
        """Regression: a sub-epsilon deficit must not freeze the clock.

        With a deficit smaller than one float ulp of `now`,
        ``now + deficit/rate == now`` in float64; hosts rescheduling at
        that ready time would then livelock at a frozen timestamp.
        """
        now = 529.041046
        pacer = Pacer(rate=40.0, bucket=2.0, start=now)
        # deficit above the send's 1e-12 slack, but deficit/rate under
        # half an ulp of `now`, so now + deficit/rate rounds back to now
        pacer._tokens = 1.0 - 2e-12
        assert pacer.pace(now, 40.0, 1.0) == (False, math.nextafter(now, math.inf))

    def test_ready_time_never_returns_now_while_refusing(self):
        """Any refused send must get a strictly later retry time."""
        now = 529.041046
        for deficit in (2e-12, 1e-11, 1e-9, 1e-4):
            pacer = Pacer(rate=40.0, bucket=2.0, start=now)
            pacer._tokens = 1.0 - deficit
            sent, ready = pacer.pace(now, 40.0, 1.0)
            if sent:
                continue
            assert ready > now

    def test_validation(self):
        with pytest.raises(ValueError):
            Pacer(rate=-1.0)
        with pytest.raises(ValueError):
            Pacer(rate=1.0, bucket=0.0)
        with pytest.raises(ValueError):
            Pacer(rate=1.0).pace(0.0, -1.0, 1.0)

    @pytest.mark.parametrize("field", ["rate", "bucket"])
    def test_rejects_non_finite_numbers(self, field):
        with pytest.raises(ValueError, match=field):
            Pacer(**{"rate": 1.0, field: float("nan")})

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),
                st.sampled_from([0.0, 0.5, 1.0, 3.0, 40.0]),
            ),
            min_size=1,
            max_size=30,
        ),
        size=st.sampled_from([0.05, 1.0, 1.5]),
    )
    def test_pace_equals_set_rate_try_send_ready_time(self, steps, size):
        """``pace`` is the split three-call sequence, float for float."""
        from tests.oracles import SplitPacer

        fused = Pacer(rate=1.0, bucket=2.0)
        split = SplitPacer(rate=1.0, bucket=2.0)
        now = 0.0
        for gap, rate in steps:
            now += gap
            split.set_rate(rate, now)
            expected = (split.try_send(now, size), split.ready_time(now, size))
            assert fused.pace(now, rate, size) == expected
            assert (fused.rate, fused._tokens, fused._updated) == (
                split.rate, split._tokens, split._updated,
            )


class TestSimLink:
    def _link(self, sched, buffer=2, rate=1.0, delay=0.0, **cbs):
        return SimLink(
            index=0, rate=rate, delay=delay, buffer=buffer,
            scheduler=sched, **cbs,
        )

    def _packet(self, link, seq=0, size=1.0):
        return Packet(
            flow_id=0, sequence=seq, route=(link,), sent_at=0.0, size=size,
        )

    def test_overflow_drops_and_reports(self):
        sched = EventScheduler()
        dropped = []
        link = self._link(
            sched, buffer=2, on_drop=lambda p, l, t: dropped.append(p.sequence)
        )
        assert link.enqueue(self._packet(link, 0))
        assert link.enqueue(self._packet(link, 1))
        assert not link.enqueue(self._packet(link, 2))  # buffer full
        assert dropped == [2]
        assert link.drops == 1 and link.arrivals == 3

    def test_fifo_service_and_delivery_order(self):
        sched = EventScheduler()
        delivered = []
        link = self._link(
            sched, buffer=10, rate=2.0, delay=0.25,
            on_deliver=lambda p, t: delivered.append((p.sequence, t)),
        )
        for seq in range(3):
            link.enqueue(self._packet(link, seq))
        sched.run_until(2.0)
        assert [seq for seq, _ in delivered] == [0, 1, 2]
        # service at 1/rate per unit packet, plus propagation
        assert delivered[0][1] == pytest.approx(0.5 + 0.25)
        assert delivered[-1][1] == pytest.approx(1.5 + 0.25)
        assert link.served == 3

    def test_buffer_frees_as_service_progresses(self):
        sched = EventScheduler()
        link = self._link(sched, buffer=1, rate=1.0)
        assert link.enqueue(self._packet(link, 0))
        assert not link.enqueue(self._packet(link, 1))
        sched.run_until(1.0)  # head departs
        assert link.enqueue(self._packet(link, 2))

    def test_queue_state_follows_the_clock(self):
        sched = EventScheduler()
        link = self._link(sched, buffer=2, rate=1.0)
        assert link.enqueue(self._packet(link, 0))  # departs at 1.0
        assert link.enqueue(self._packet(link, 1))  # departs at 2.0
        assert (link.occupancy, link.is_full, link.served) == (2, True, 0)
        sched.run_until(1.0)
        assert (link.occupancy, link.is_full, link.served) == (1, False, 1)
        sched.run_until(5.0)
        assert (link.occupancy, link.is_full, link.served) == (0, False, 2)

    @pytest.mark.parametrize("reference", [False, True])
    def test_departure_at_an_arrival_instant_leaves_first(self, reference):
        """Two flows meet at one instant: flow 1 arrives exactly when
        flow 0's packet departs a one-packet buffer.  The arrival event is
        pushed before the departure is known, so the event-driven link
        dispatches it first and drops it; the departure-time FIFO lets the
        departure leave first, whatever the push order.
        """
        from tests.oracles import EventDrivenSimLink

        sched = EventScheduler()
        dropped, delivered = [], []
        link = (EventDrivenSimLink if reference else SimLink)(
            index=0, rate=1.0, delay=0.5, buffer=1, scheduler=sched,
            on_drop=lambda p, l, t: dropped.append(p.flow_id),
            on_deliver=lambda p, t: delivered.append((p.flow_id, t)),
        )
        late = Packet(flow_id=1, sequence=0, route=(link,), sent_at=1.0)
        sched.schedule(1.0, link.enqueue, late)
        assert link.enqueue(
            Packet(flow_id=0, sequence=0, route=(link,), sent_at=0.0)
        )
        sched.run_until(10.0)
        if reference:
            assert dropped == [1] and delivered == [(0, 1.5)]
        else:
            assert dropped == [] and delivered == [(0, 1.5), (1, 2.5)]
            assert late.delivered_at == 2.5

    def test_multi_hop_arrival_is_scheduled_at_departure_plus_delay(self):
        sched = EventScheduler()
        arrivals = []
        first = self._link(sched, rate=2.0, delay=0.25)
        second = self._link(
            sched, rate=1.0, delay=0.5,
            on_deliver=lambda p, t: arrivals.append((p.hop, t)),
        )
        packet = Packet(flow_id=0, sequence=0, route=(first, second), sent_at=0.0)
        assert first.enqueue(packet)
        assert len(sched) == 1 and arrivals == []  # one event: the next hop
        sched.run_until_idle()
        assert arrivals == [(1, 0.5 + 0.25 + 1.0 + 0.5)]
        assert sched.events_dispatched == 1

    def test_validation(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            self._link(sched, rate=0.0)
        with pytest.raises(ValueError):
            self._link(sched, buffer=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate", float("nan")),
            ("rate", float("inf")),
            ("delay", float("nan")),
            ("delay", float("inf")),
            ("buffer", 2.7),
            ("buffer", True),
        ],
    )
    def test_rejects_malformed_inputs(self, field, value):
        with pytest.raises(ValueError, match=field):
            self._link(EventScheduler(), **{field: value})

    def test_accepts_numpy_integers(self):
        link = self._link(EventScheduler(), buffer=np.int64(3))
        assert link.buffer == 3 and isinstance(link.buffer, int)


class TestOnOffCBR:
    def test_calibration_arithmetic(self):
        cc = OnOffCBR.for_target_loss(0.05, capacity=20.0, buffer=12)
        fill = 12 / 20.0
        assert cc.rate == pytest.approx(40.0)
        assert cc.mean_on == pytest.approx(fill + 3.0)
        duty = 0.05 / 0.75
        assert cc.mean_off == pytest.approx(3.0 / duty - cc.mean_on)

    def test_duty_cycle_is_capped(self):
        cc = OnOffCBR.for_target_loss(0.9, capacity=20.0, buffer=12)
        assert cc.mean_off >= 1e-3

    def test_phase_walk_is_deterministic(self):
        rates = []
        for _ in range(2):
            cc = OnOffCBR(on_rate=40.0, mean_on=2.0, mean_off=5.0)
            cc.bind(np.random.default_rng(7))
            rates.append([cc.pacing_rate(t / 4) for t in range(200)])
        assert rates[0] == rates[1]
        assert 0.0 in rates[0] and 40.0 in rates[0]

    def test_requires_bind(self):
        cc = OnOffCBR(on_rate=40.0, mean_on=2.0, mean_off=5.0)
        with pytest.raises(RuntimeError):
            cc.pacing_rate(0.0)
        with pytest.raises(ValueError):
            cc.bind(None)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffCBR.for_target_loss(0.0, capacity=20.0, buffer=12)
        with pytest.raises(ValueError):
            OnOffCBR(on_rate=40.0, mean_on=0.0, mean_off=1.0)


class TestControllers:
    def _packet(self, sent_at=0.0, size=1.0):
        sched = EventScheduler()
        link = SimLink(index=0, rate=1.0, delay=0.0, buffer=1, scheduler=sched)
        return Packet(
            flow_id=0, sequence=0, route=(link,), sent_at=sent_at, size=size
        )

    def test_aimd_sawtooth(self):
        cc = AIMDController(initial_rate=4.0)
        cc.on_loss(10.0, self._packet())
        assert cc.rate == pytest.approx(2.0)
        # refractory: a second loss within one RTT does not halve again
        cc.on_loss(10.1, self._packet())
        assert cc.rate == pytest.approx(2.0) and cc.backoffs == 1
        before = cc.rate
        cc.on_ack(12.0, self._packet(sent_at=11.0), rtt=1.0)
        assert cc.rate > before

    def test_aimd_respects_max_rate(self):
        cc = AIMDController(initial_rate=5.0, max_rate=5.0)
        for t in range(20):
            cc.on_ack(float(t), self._packet(), rtt=1.0)
        assert cc.rate == 5.0

    def test_rate_prober_adopts_probe_estimate(self):
        cc = RateProber(initial_rate=2.0)
        assert cc.pacing_rate(0.0) == pytest.approx(6.0)  # probing at 3x
        # five packets over at least 1.5 slots end the probe
        for i in range(5):
            p = self._packet(sent_at=0.5 * i)
            cc.on_sent(0.5 * i, p)
            cc.on_ack(0.5 * i + 0.25, p, rtt=0.25)
        assert cc.state == 0  # back to CRUISE
        assert cc.probes_completed == 1
        # 5 units sent over 2 slots and acked over 2 slots, drained by 0.9
        assert cc.rate == pytest.approx(0.9 * 2.5)

    def test_rate_prober_backs_off_on_loss(self):
        cc = RateProber(initial_rate=10.0)
        cc.on_loss(5.0, self._packet())
        assert cc.rate == pytest.approx(9.0)


class TestHostAndTap:
    def test_cbr_host_paces_at_rate(self):
        from repro.netsim.sim import ConstantBitRate

        sched = EventScheduler()
        delivered = []
        link = SimLink(
            index=0, rate=100.0, delay=0.0, buffer=50, scheduler=sched,
            on_deliver=lambda p, t: delivered.append(p.sequence),
        )
        host = Host(
            flow_id=0, route=(link,), cc=ConstantBitRate(2.0),
            scheduler=sched, stop_time=10.0,
        )
        host.start()
        sched.run_until(20.0)
        # 2 packets/slot over 10 slots, plus the initial bucket burst
        assert 18 <= host.packets_sent <= 23
        assert delivered == sorted(delivered)

    def test_probe_tap_emits_one_probe_per_slot(self):
        sched = EventScheduler()
        link = SimLink(index=0, rate=100.0, delay=0.0, buffer=50, scheduler=sched)
        tap = ProbeTap(link=link, num_probes=8, phase=0.25)
        sched.run_until(10.0)
        assert link.served == 8  # reading the queue fires the due probes
        slots = [slot for slot, d in enumerate(tap.departures) if not math.isnan(d)]
        assert slots == list(range(8))
        assert tap.sent.tolist() == [0.25 + slot for slot in range(8)]
        assert sched.events_dispatched == 0  # the link fired them, off the heap

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_probes", 2.5),
            ("num_probes", True),
            ("probe_size", float("nan")),
            ("probe_size", float("inf")),
        ],
    )
    def test_probe_tap_rejects_malformed_inputs(self, field, value):
        sched = EventScheduler()
        link = SimLink(index=0, rate=1.0, delay=0.0, buffer=2, scheduler=sched)
        kwargs = dict(link=link, num_probes=4)
        with pytest.raises(ValueError, match=field):
            ProbeTap(**{**kwargs, field: value})
        assert ProbeTap(**{**kwargs, "num_probes": np.int32(4)}).num_probes == 4

    def _tied_link(self, sched, buffer):
        """A tap, a link-local driver and a heap arrival, all at 0.5."""
        from repro.netsim.sim import ConstantBitRate

        dropped = []
        link = SimLink(
            index=0, rate=1.0, delay=0.0, buffer=buffer, scheduler=sched,
            on_drop=lambda p, l, t: dropped.append(p.flow_id),
        )
        tap = ProbeTap(link=link, num_probes=1, phase=0.5)
        driver = Host(
            flow_id=0, route=(link,), cc=ConstantBitRate(1.0),
            scheduler=sched, bucket=1.0, start_time=0.5, stop_time=0.6,
        )
        driver.start_local()
        arrival = Packet(flow_id=1, sequence=0, route=(link,), sent_at=0.5)
        sched.schedule(0.5, link.enqueue, arrival)
        sched.run_until(5.0)
        return link, tap, driver, dropped

    def test_local_sources_fire_before_an_arrival_at_the_same_instant(self):
        """Tie rule: the tap, then the driver, then the heap arrival."""
        link, tap, driver, dropped = self._tied_link(EventScheduler(), buffer=2)
        assert tap.departures.tolist() == [0.5 + 0.05]
        assert driver.packets_sent == 1
        assert dropped == [1] and link.drops == 1  # only the arrival
        link, tap, driver, dropped = self._tied_link(EventScheduler(), buffer=1)
        assert tap.departures.tolist() == [0.5 + 0.05]  # the tap beats the driver
        assert driver.packets_sent == 1 and link.drops == 2 and dropped == [1]
        assert link.served == 1

    def test_only_feedback_free_single_link_hosts_run_local(self):
        from repro.netsim.sim import ConstantBitRate

        sched = EventScheduler()
        a, b = (
            SimLink(index=i, rate=1.0, delay=0.0, buffer=2, scheduler=sched)
            for i in range(2)
        )
        for route, cc in [
            ((a, b), ConstantBitRate(1.0)),
            ((a,), AIMDController(initial_rate=1.0)),
            ((a,), RateProber(initial_rate=1.0)),
        ]:
            host = Host(flow_id=0, route=route, cc=cc, scheduler=sched)
            with pytest.raises(ValueError, match="link-local"):
                host.start_local()
        host = Host(flow_id=0, route=(a,), cc=ConstantBitRate(1.0), scheduler=sched)
        host.start_local()
        with pytest.raises(RuntimeError):
            host.start()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("start_time", float("nan")),
            ("stop_time", float("nan")),
            ("bucket", float("nan")),
        ],
    )
    def test_host_rejects_malformed_inputs(self, field, value):
        from repro.netsim.sim import ConstantBitRate

        sched = EventScheduler()
        link = SimLink(index=0, rate=1.0, delay=0.0, buffer=2, scheduler=sched)
        with pytest.raises(ValueError, match=field):
            Host(
                flow_id=0, route=(link,), cc=ConstantBitRate(1.0),
                scheduler=sched, **{field: value},
            )


class TestCongestionSimulator:
    PATHS = [(0, 1), (0, 2), (3,)]

    def _rates(self, num_links=5):
        rates = np.zeros(num_links)
        rates[1] = 0.08
        return rates

    def test_trace_shapes_and_active_links(self):
        sim = CongestionSimulator(self.PATHS, 5)
        assert list(sim.active_links) == [0, 1, 2, 3]
        trace = sim.run_snapshot(self._rates(), 60, seed=3)
        assert trace.drops.shape == (4, 60)
        assert trace.delays_ms.shape == (4, 60)
        assert trace.num_probes == 60
        assert trace.events > 0 and trace.packets_forwarded > 0

    def test_driven_link_loses_and_quiet_links_do_not(self):
        sim = CongestionSimulator(self.PATHS, 5)
        fractions = np.zeros(4)
        for seed in range(5):
            fractions += sim.run_snapshot(self._rates(), 400, seed).loss_fractions()
        fractions /= 5
        assert fractions[1] > 0.02          # the calibrated driver bites
        assert fractions[[0, 2, 3]].max() < 0.01  # cross traffic alone is mild

    def test_same_seed_is_bit_identical(self):
        sim = CongestionSimulator(self.PATHS, 5)
        a = sim.run_snapshot(self._rates(), 200, seed=11)
        b = sim.run_snapshot(self._rates(), 200, seed=11)
        assert np.array_equal(a.drops, b.drops)
        assert np.array_equal(a.delays_ms, b.delays_ms)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        sim = CongestionSimulator(self.PATHS, 5)
        a = sim.run_snapshot(self._rates(), 400, seed=11)
        b = sim.run_snapshot(self._rates(), 400, seed=12)
        assert not np.array_equal(a.drops, b.drops)

    def test_expand_drops_pads_inactive_rows(self):
        sim = CongestionSimulator(self.PATHS, 6)
        trace = sim.run_snapshot(np.zeros(6), 50, seed=0)
        full = sim.expand_drops(trace)
        assert full.shape == (6, 50)
        assert not full[[4, 5]].any()

    def test_validation(self):
        with pytest.raises(ValueError):
            CongestionSimulator([], 5)
        with pytest.raises(ValueError):
            CongestionSimulator([(0, 7)], 5)
        sim = CongestionSimulator(self.PATHS, 5)
        with pytest.raises(ValueError):
            sim.run_snapshot(np.zeros(3), 50, seed=0)
        with pytest.raises(ValueError):
            sim.run_snapshot(np.zeros(5), 0, seed=0)

    @pytest.mark.parametrize("num_probes", [2.5, True])
    def test_rejects_non_integral_num_probes(self, num_probes):
        sim = CongestionSimulator(self.PATHS, 5)
        with pytest.raises(ValueError, match="num_probes"):
            sim.run_snapshot(self._rates(), num_probes, seed=0)

    @pytest.mark.parametrize("seed", [2.7, True])
    def test_rejects_non_integral_seed(self, seed):
        sim = CongestionSimulator(self.PATHS, 5)
        with pytest.raises(ValueError, match="seed"):
            sim.run_snapshot(self._rates(), 40, seed=seed)

    def test_accepts_numpy_integer_counts(self):
        sim = CongestionSimulator(self.PATHS, 5)
        a = sim.run_snapshot(self._rates(), np.int64(40), seed=np.int32(3))
        b = sim.run_snapshot(self._rates(), 40, seed=3)
        assert a.drops.tobytes() == b.drops.tobytes()
        assert a.delays_ms.tobytes() == b.delays_ms.tobytes()

    @pytest.mark.parametrize(
        "bad", [-0.01, float("nan"), float("inf"), 1.5],
    )
    def test_rejects_malformed_rates(self, bad):
        sim = CongestionSimulator(self.PATHS, 5)
        rates = self._rates()
        rates[[2, 4]] = bad
        with pytest.raises(ValueError, match="link 2 "):
            sim.run_snapshot(rates, 50, seed=0)

    def test_accepts_boundary_rates(self):
        """0 and 1 are valid; rates above 0.95 calibrate as 0.95."""
        sim = CongestionSimulator(self.PATHS, 5)
        rates = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
        clamped = rates.copy()
        clamped[[1, 4]] = 0.95
        a = sim.run_snapshot(rates, 40, seed=2)
        b = sim.run_snapshot(clamped, 40, seed=2)
        assert np.array_equal(a.drops, b.drops)


class TestDepartureTimeOracle:
    """The simulator against an all-heap reference, bit for bit.

    ``reference_run_snapshot`` of ``tests/oracles.py`` runs each
    snapshot with heap-driven taps and drivers on event-driven links
    (one event per service completion).  Every trace field but
    ``events`` must match exactly.
    """

    #: The 12-link chain-and-branch layout of the golden corpus.
    CORPUS_PATHS = [
        (0, 1, 2), (0, 1, 3), (0, 4, 5), (0, 4, 6),
        (7, 8), (7, 9), (10, 11), (10, 2),
    ]

    def _both(self, paths, rates, num_probes, seed):
        from tests.oracles import reference_run_snapshot

        sim = CongestionSimulator(paths, len(rates))
        trace = sim.run_snapshot(rates, num_probes, seed)
        return trace, reference_run_snapshot(sim, rates, num_probes, seed)

    def _assert_same_trace(self, trace, reference):
        import dataclasses

        for field in dataclasses.fields(trace):
            if field.name == "events":
                continue
            ours, theirs = getattr(trace, field.name), getattr(reference, field.name)
            if isinstance(ours, np.ndarray):
                assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes(), field.name
            else:
                assert ours == theirs, field.name

    def _generated(self, kind, sizing, seed, congested, high):
        from repro.experiments import scale_params
        from repro.topology.prepare import prepare_topology

        prepared = prepare_topology(kind, scale_params("tiny").sized(**sizing), seed)
        num_links = prepared.topology.network.num_links
        rng = np.random.default_rng(seed)
        rates = np.where(
            rng.random(num_links) < congested, rng.uniform(0.02, high, num_links), 0.0
        )
        return prepared.paths, rates

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_corpus_layout(self, seed):
        rates = np.zeros(12)
        rates[[1, 5, 8]] = (0.05, 0.1, 0.03)
        trace, reference = self._both(self.CORPUS_PATHS, rates, 600, seed)
        self._assert_same_trace(trace, reference)
        assert trace.probe_drops > 0 and trace.events < reference.events

    @pytest.mark.parametrize(
        "kind, sizing, seed",
        [
            ("tree", dict(tree_nodes=25, num_end_hosts=6), 0),
            ("tree", dict(tree_nodes=25, num_end_hosts=6), 1),
            ("tree", dict(tree_nodes=40, num_end_hosts=8), 2),
            ("waxman", dict(mesh_nodes=30, num_end_hosts=5), 0),
            ("waxman", dict(mesh_nodes=30, num_end_hosts=5), 1),
            ("barabasi-albert", dict(mesh_nodes=30, num_end_hosts=5), 0),
            ("barabasi-albert", dict(mesh_nodes=30, num_end_hosts=5), 1),
        ],
    )
    def test_generated_layouts(self, kind, sizing, seed):
        paths, rates = self._generated(kind, sizing, seed, congested=0.2, high=0.1)
        trace, reference = self._both(paths, rates, 200, seed + 5)
        self._assert_same_trace(trace, reference)
        assert trace.probe_drops > 0 and trace.events < reference.events

    @pytest.mark.parametrize("seed", [2, 3, 4])
    @pytest.mark.parametrize(
        "kind, sizing",
        [
            ("tree", dict(tree_nodes=25, num_end_hosts=6)),
            ("tree", dict(tree_nodes=40, num_end_hosts=8)),
            ("waxman", dict(mesh_nodes=30, num_end_hosts=5)),
            ("barabasi-albert", dict(mesh_nodes=30, num_end_hosts=5)),
        ],
    )
    def test_heavily_congested_layouts(self, kind, sizing, seed):
        """30% of links congested at 0.02-0.2: many drivers, many ties to get right."""
        paths, rates = self._generated(kind, sizing, seed, congested=0.3, high=0.2)
        trace, reference = self._both(paths, rates, 200, seed + 11)
        self._assert_same_trace(trace, reference)
        assert trace.probe_drops > 0 and trace.events < reference.events

    def test_cross_flows_receive_every_ack_and_loss(self, monkeypatch):
        """Drivers left the heap; AIMD and prober flows keep their feedback.

        Both runs log every ``on_sent``/``on_ack``/``on_loss`` call of
        the cross flows' controllers; the logs must match the all-heap
        reference, and every packet sent well before the horizon must
        have come back as exactly one ack or loss.
        """
        from tests.oracles import reference_run_snapshot

        log = []

        def recording(controller):
            class Recording(controller):
                def on_sent(self, now, packet):
                    log.append(("sent", now, packet.flow_id, packet.sequence))
                    super().on_sent(now, packet)

                def on_ack(self, now, packet, rtt):
                    log.append(("ack", now, packet.flow_id, packet.sequence))
                    super().on_ack(now, packet, rtt)

                def on_loss(self, now, packet):
                    log.append(("loss", now, packet.flow_id, packet.sequence))
                    super().on_loss(now, packet)

            return Recording

        monkeypatch.setattr(simulator_module, "AIMDController", recording(AIMDController))
        monkeypatch.setattr(simulator_module, "RateProber", recording(RateProber))
        rates = np.zeros(12)
        rates[[0, 1, 5, 8]] = (0.1, 0.05, 0.1, 0.03)
        sim = CongestionSimulator(self.CORPUS_PATHS, 12)
        sim.run_snapshot(rates, 400, 5)
        ours, log[:] = list(log), []
        reference_run_snapshot(sim, rates, 400, 5)
        assert ours == log
        kinds = {kind for kind, *_ in ours}
        assert kinds == {"sent", "ack", "loss"}
        flows = {flow for _, _, flow, _ in ours}
        assert len(flows) == (
            simulator_module.NUM_AIMD_FLOWS + simulator_module.NUM_PROBER_FLOWS
        )
        sent = {(f, q) for kind, t, f, q in ours if kind == "sent" and t < 400 - 5}
        answered = [(f, q) for kind, _, f, q in ours if kind != "sent"]
        assert len(answered) == len(set(answered))  # never both, never twice
        assert sent <= set(answered)

    def test_delivery_after_the_run_keeps_the_full_buffer_sojourn(self, monkeypatch):
        """A probe too large to clear its link by ``horizon + tail``.

        With 60 service units at 20 per slot the probe leaves 3 slots
        after it arrives, later than the run's end 1 + 12 / 20 + 1.02.
        The event-driven link never fires that delivery; the FIFO knows
        it at enqueue and must not record it either.
        """
        monkeypatch.setattr(simulator_module, "PROBE_SIZE", 60.0)
        monkeypatch.setattr(simulator_module, "NUM_AIMD_FLOWS", 0)
        monkeypatch.setattr(simulator_module, "NUM_PROBER_FLOWS", 0)
        trace, reference = self._both([(0,)], np.zeros(1), 1, 0)
        sim = simulator_module
        full_sojourn = sim.BUFFER_PACKETS / sim.CAPACITY_PER_SLOT + sim.PROP_DELAY_SLOTS
        assert trace.delays_ms[0, 0] == full_sojourn * sim.SLOT_MS
        assert not trace.drops.any() and trace.packets_forwarded == 0
        self._assert_same_trace(trace, reference)


class TestCongestionLossProcess:
    PATHS = [(0, 1), (2,)]

    def test_shape_and_fallback_rows(self):
        process = CongestionLossProcess(self.PATHS, 4)
        rates = np.array([0.0, 0.1, 0.0, 0.5])
        states = process.sample_states(rates, 2000, seed=0)
        assert states.shape == (4, 2000) and states.dtype == bool
        # link 3 is on no path: Bernoulli fallback at its assigned rate
        assert states[3].mean() == pytest.approx(0.5, abs=0.05)
        assert not states[0].any() or states[0].mean() < 0.02

    def test_same_seed_is_byte_identical(self):
        process = CongestionLossProcess(self.PATHS, 4)
        rates = np.array([0.0, 0.1, 0.0, 0.3])
        a = process.sample_states(rates, 300, seed=42)
        b = process.sample_states(rates, 300, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_collect_traces(self):
        process = CongestionLossProcess(self.PATHS, 4)
        rates = np.zeros(4)
        process.sample_states(rates, 50, seed=1)
        assert process.last_trace is not None and process.traces == []
        process.collect_traces = True
        process.sample_states(rates, 50, seed=1)
        process.sample_states(rates, 50, seed=2)
        assert len(process.traces) == 2

    def test_loss_fraction_streaming_matches_states(self):
        process = CongestionLossProcess(self.PATHS, 4)
        rates = np.array([0.05, 0.1, 0.0, 0.2])
        fractions = process.sample_loss_fractions(rates, 500, seed=9)
        states = process.sample_states(rates, 500, seed=9)
        assert np.array_equal(fractions, states.mean(axis=1))


class TestEndToEndCampaign:
    def test_probing_simulator_runs_on_congestion_process(self):
        from repro.api import EstimatorSpec, Scenario
        from repro.experiments import scale_params
        from repro.utils.rng import derive_seed

        scenario = Scenario(
            topology="tree",
            params=scale_params("tiny").sized(
                tree_nodes=20, num_end_hosts=5, snapshots=4, probes=120
            ),
            num_training=4,
            traffic="congestion",
            estimators=(EstimatorSpec("lia"),),
        )
        prepared = scenario.prepare(3)
        fractions = []
        for _ in range(2):
            simulator = scenario.build_simulator(prepared)
            campaign = simulator.run_campaign(
                scenario.campaign_length,
                prepared.routing,
                seed=derive_seed(3, scenario.campaign_salt),
            )
            fractions.append(
                np.concatenate(
                    [s.realized_loss_fractions for s in campaign.snapshots]
                )
            )
        # campaign-level determinism: same seed, byte-identical realisations
        assert fractions[0].tobytes() == fractions[1].tobytes()

    def test_congestion_scenario_detects_congested_links(self):
        from repro.api import EstimatorSpec, Scenario
        from repro.experiments import scale_params

        scenario = Scenario(
            topology="tree",
            params=scale_params("tiny").sized(
                tree_nodes=25, num_end_hosts=6, snapshots=8, probes=300
            ),
            num_training=8,
            traffic="congestion",
            estimators=(EstimatorSpec("lia"),),
        )
        outcome = scenario.run(seed=0)
        detection = outcome.evaluation("lia").detection
        assert detection.detection_rate == pytest.approx(1.0)
        assert detection.false_positive_rate == pytest.approx(0.0)
        # the campaign carries real (non-degenerate) loss realisations
        assert any(
            s.realized_loss_fractions.max() > 0
            for s in outcome.campaign.snapshots
        )

