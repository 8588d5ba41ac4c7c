"""Unit tests for the online frequency selection (Algorithm 2)."""

import math
import zlib

import numpy as np
import pytest

from repro.cluster.curie import curie_machine
from repro.cluster.states import NodeState
from repro.core.offline import OfflinePlanner
from repro.core.online import FrequencySelector, PowercapView, active_cap_rejects
from repro.core.policies import make_policy
from repro.platform import get_platform
from repro.rjms.config import SchedulerConfig
from repro.rjms.reservations import (
    PowercapReservation,
    ReservationRegistry,
    ShutdownReservation,
    shutdown_savings_from_idle,
)

HOUR = 3600.0


@pytest.fixture
def machine():
    return curie_machine(scale=1 / 56)  # 90 nodes


def view_for(machine, acct, caps=(), shutdowns=(), now=0.0, running=()):
    reg = ReservationRegistry(machine.n_nodes)
    for c in caps:
        reg.add_powercap(c)
    for s in shutdowns:
        reg.add_shutdown(s)
    # The view takes each running job as an (expected_end, busy delta)
    # pair, as the controller's running-job index keeps them.
    rows = [
        (job.expected_end, acct.busy_delta_watts(job.n_nodes, job.freq_index))
        for job in running
    ]
    return PowercapView(reg, acct, now, rows)


class TestNoConstraints:
    def test_top_frequency_without_caps(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(make_policy("DVFS", machine.freq_table))
        d = sel.decide(10, 86400.0, view_for(machine, acct))
        assert d.ok and d.freq_ghz == 2.7 and not d.soft
        assert d.degradation == 1.0

    def test_none_policy_ignores_active_cap(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(make_policy("NONE", machine.freq_table))
        cap = PowercapReservation(0.0, math.inf, watts=1.0)
        d = sel.decide(90, 86400.0, view_for(machine, acct, caps=[cap]))
        assert d.ok and d.freq_ghz == 2.7


class TestActiveCap:
    def test_blocks_when_even_min_does_not_fit(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(make_policy("DVFS", machine.freq_table))
        # Cap barely above the idle floor: a 90-node job cannot fit.
        cap = PowercapReservation(0.0, math.inf, watts=acct.idle_floor() + 100)
        d = sel.decide(90, 86400.0, view_for(machine, acct, caps=[cap], now=1.0))
        assert not d.ok
        assert d.reason == "active powercap"

    def test_selects_highest_fitting_step(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(make_policy("DVFS", machine.freq_table))
        # Headroom for 10 nodes at 2.0 GHz (152 W delta) but not 2.2.
        headroom = 10 * (269 - 117) + 1
        cap = PowercapReservation(0.0, math.inf, watts=acct.idle_floor() + headroom)
        d = sel.decide(10, 86400.0, view_for(machine, acct, caps=[cap], now=1.0))
        assert d.ok and d.freq_ghz == 2.0 and not d.soft

    def test_max_fits_runs_at_max(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(make_policy("DVFS", machine.freq_table))
        cap = PowercapReservation(0.0, math.inf, watts=acct.max_power())
        d = sel.decide(90, 86400.0, view_for(machine, acct, caps=[cap], now=1.0))
        assert d.ok and d.freq_ghz == 2.7

    def test_accounts_running_jobs_through_current_power(self, machine):
        acct = machine.new_accountant()
        # 40 nodes already busy at max.
        acct.set_state(np.arange(40), NodeState.BUSY, freq_index=7)
        sel = FrequencySelector(make_policy("DVFS", machine.freq_table))
        headroom_for_min_only = acct.total_power() + 10 * (193 - 117) + 1
        cap = PowercapReservation(0.0, math.inf, watts=headroom_for_min_only)
        d = sel.decide(10, 86400.0, view_for(machine, acct, caps=[cap], now=1.0))
        assert d.ok and d.freq_ghz == 1.2

    def test_idle_policy_waits(self, machine):
        acct = machine.new_accountant()
        acct.set_state(np.arange(60), NodeState.BUSY, freq_index=7)
        sel = FrequencySelector(make_policy("IDLE", machine.freq_table))
        cap = PowercapReservation(0.0, math.inf, watts=acct.total_power() + 10)
        d = sel.decide(5, 86400.0, view_for(machine, acct, caps=[cap], now=1.0))
        assert not d.ok  # only the top step exists and does not fit


class TestFutureWindows:
    def test_overlapping_job_throttled_softly(self, machine):
        """A job whose walltime crosses a future window is started at
        the lowest step once the projected budget saturates."""
        acct = machine.new_accountant()
        policy = make_policy("DVFS", machine.freq_table)
        sel = FrequencySelector(policy)
        cap = PowercapReservation(2 * HOUR, 3 * HOUR, watts=acct.idle_floor() + 500)
        view = view_for(machine, acct, caps=[cap], now=0.0)
        # First job: 500 W of window headroom fits 6 nodes at 1.2 GHz
        # (76 W delta) but only 2 at 2.7 (241 W).
        d = sel.decide(2, 86400.0, view)
        assert d.ok and d.freq_ghz == 2.7
        view.note_start(2, d.freq_index, 86400.0)
        d2 = sel.decide(2, 86400.0, view)
        assert d2.ok and d2.freq_ghz == 1.2  # remaining headroom 18 W -> soft? no: 2*76=152 > 18
        assert d2.soft

    def test_short_job_ends_before_window_unconstrained(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(make_policy("DVFS", machine.freq_table))
        cap = PowercapReservation(2 * HOUR, 3 * HOUR, watts=acct.idle_floor() + 1)
        view = view_for(machine, acct, caps=[cap], now=0.0)
        d = sel.decide(90, HOUR, view)  # walltime 1h, window at 2h
        assert d.ok and d.freq_ghz == 2.7 and not d.soft

    def test_strict_future_blocks_instead_of_soft(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(
            make_policy("DVFS", machine.freq_table), strict_future=True
        )
        cap = PowercapReservation(2 * HOUR, 3 * HOUR, watts=acct.idle_floor() + 1)
        view = view_for(machine, acct, caps=[cap], now=0.0)
        d = sel.decide(10, 86400.0, view)
        assert not d.ok and d.reason == "planned powercap"

    def test_shutdown_savings_enlarge_window_budget(self, machine):
        """With a planned switch-off reservation, the projected window
        power drops, so jobs on alive nodes fit at high frequency —
        the SHUT mechanism in action."""
        acct = machine.new_accountant()
        topo = machine.topology
        sel = FrequencySelector(make_policy("SHUT", machine.freq_table))
        off_nodes = topo.nodes_of_rack(0)[:54]  # 3 chassis
        savings = shutdown_savings_from_idle(off_nodes, topo, 117.0)
        cap_watts = acct.idle_floor() - savings + 36 * (358 - 117) + 1
        cap = PowercapReservation(2 * HOUR, 3 * HOUR, watts=cap_watts)
        sd = ShutdownReservation(
            2 * HOUR, 3 * HOUR, off_nodes, savings_from_idle_watts=savings
        )
        view = view_for(machine, acct, caps=[cap], shutdowns=[sd], now=0.0)
        d = sel.decide(36, 86400.0, view)
        assert d.ok and d.freq_ghz == 2.7 and not d.soft

    def test_running_jobs_count_when_overlapping_window(self, machine):
        acct = machine.new_accountant()
        acct.set_state(np.arange(30), NodeState.BUSY, freq_index=7)

        class _R:
            n_nodes = 30
            freq_index = 7
            expected_end = 10 * HOUR

        cap = PowercapReservation(
            2 * HOUR, 3 * HOUR, watts=acct.idle_floor() + 30 * (358 - 117) + 100
        )
        view = view_for(machine, acct, caps=[cap], now=0.0, running=[_R()])
        sel = FrequencySelector(make_policy("DVFS", machine.freq_table))
        d = sel.decide(4, 86400.0, view)
        # 100 W left: only 1.2 GHz for 1 node; 4 nodes need 304 W -> soft.
        assert d.ok and d.soft and d.freq_ghz == 1.2

    def test_running_jobs_ending_before_window_ignored(self, machine):
        acct = machine.new_accountant()
        acct.set_state(np.arange(30), NodeState.BUSY, freq_index=7)

        class _R:
            n_nodes = 30
            freq_index = 7
            expected_end = HOUR  # done before the window opens

        cap = PowercapReservation(
            2 * HOUR, 3 * HOUR, watts=acct.idle_floor() + 4 * (358 - 117) + 1
        )
        view = view_for(machine, acct, caps=[cap], now=0.0, running=[_R()])
        sel = FrequencySelector(make_policy("DVFS", machine.freq_table))
        d = sel.decide(4, 86400.0, view)
        assert d.ok and d.freq_ghz == 2.7 and not d.soft


    def test_window_bases_add_in_running_order(self, machine):
        """Each window's base adds the deltas of the jobs ending after
        it starts one at a time, in running order.  The deltas here are
        not exactly summable, so another order gives other bits."""
        acct = machine.new_accountant()
        caps = [
            PowercapReservation(2 * HOUR, 3 * HOUR, 5e4),
            PowercapReservation(5 * HOUR, 6 * HOUR, 5e4),
        ]
        rows = [
            (10 * HOUR, 1e16),
            (4 * HOUR, 0.1),
            (10 * HOUR, 3.3),
            (10 * HOUR, -1e16),
            (HOUR, 7.0),
            (6 * HOUR, 0.7),
        ]
        reg = ReservationRegistry(machine.n_nodes)
        for cap in caps:
            reg.add_powercap(cap)
        view = PowercapView(reg, acct, 0.0, rows)
        expected = []
        for cap in caps:
            base = acct.idle_floor()
            for end, delta in rows:
                if end > cap.start:
                    base += delta
            expected.append(base)
        assert [w.base for w in view.windows] == expected
        reverse = PowercapView(reg, acct, 0.0, rows[::-1])
        assert [w.base for w in reverse.windows] != expected


class TestMixRange:
    def test_mix_never_below_two_ghz(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(make_policy("MIX", machine.freq_table))
        cap = PowercapReservation(0.0, math.inf, watts=acct.idle_floor() + 10 * (269 - 117) + 1)
        d = sel.decide(10, 86400.0, view_for(machine, acct, caps=[cap], now=1.0))
        assert d.ok and d.freq_ghz == 2.0
        assert d.degradation == pytest.approx(1.29)

    def test_mix_blocks_below_range(self, machine):
        acct = machine.new_accountant()
        sel = FrequencySelector(make_policy("MIX", machine.freq_table))
        cap = PowercapReservation(0.0, math.inf, watts=acct.idle_floor() + 10)
        d = sel.decide(10, 86400.0, view_for(machine, acct, caps=[cap], now=1.0))
        assert not d.ok


class TestClusterRule:
    def test_cluster_rule_uses_idle_population(self, machine):
        """Section IV-B variant: the frequency must fit *all* idle
        nodes, so it is lower than the per-job choice."""
        acct = machine.new_accountant()
        policy = make_policy("DVFS", machine.freq_table)
        cap = PowercapReservation(
            0.0, math.inf, watts=acct.idle_floor() + 90 * (213 - 117) + 1
        )
        per_job = FrequencySelector(policy).decide(
            2, 86400.0, view_for(machine, acct, caps=[cap], now=1.0)
        )
        cluster = FrequencySelector(policy, cluster_rule=True).decide(
            2, 86400.0, view_for(machine, acct, caps=[cap], now=1.0)
        )
        assert per_job.ok and per_job.freq_ghz == 2.7  # 2 nodes fit easily
        assert cluster.ok and cluster.freq_ghz == 1.4  # all 90 idle must fit


# -- the controller's active-cap gate ---------------------------------------------------
#
# The scheduling pass skips Algorithm 2 altogether when
# ``active_cap_rejects(narrowest, selector.d_min, cap, power)`` holds.
# That is only exact if every selector then rejects every job at least
# as wide as the narrowest one, at any walltime and whatever the
# future windows look like.

#: every registered policy that enforces caps
ENFORCING = ("IDLE", "SHUT", "DVFS", "MIX", "ADAPTIVE", "TRACK")
#: each platform at a few dozen nodes
GATE_SCALES = {"curie": 1 / 56, "fatnode": 1.0, "manythin": 0.125}


def _gate_cases():
    for platform in sorted(GATE_SCALES):
        for policy in ENFORCING:
            for knob in (None, "strict_future_caps", "cluster_frequency_rule"):
                # TRACK refuses the projection-based cluster rule.
                if not (policy == "TRACK" and knob == "cluster_frequency_rule"):
                    yield platform, policy, knob


def _random_load(rng, machine, allowed):
    """An accountant with a random share of nodes busy at random
    allowed steps and a few switched off."""
    acct = machine.new_accountant()
    order = rng.permutation(machine.n_nodes)
    n_busy = int(rng.integers(0, machine.n_nodes))
    for chunk in np.array_split(order[:n_busy], 3):
        if chunk.size:
            acct.set_state(chunk, NodeState.BUSY, freq_index=int(rng.choice(allowed)))
    n_off = int(rng.integers(0, (machine.n_nodes - n_busy) // 4 + 1))
    if n_off:
        acct.set_state(order[n_busy : n_busy + n_off], NodeState.OFF)
    return acct


@pytest.mark.parametrize("platform, policy, knob", list(_gate_cases()))
def test_active_cap_gate_implies_every_wider_job_is_rejected(platform, policy, knob):
    spec = get_platform(platform)
    machine = spec.build_machine(scale=GATE_SCALES[platform])
    pol = spec.make_policy(policy, machine.freq_table)
    config = SchedulerConfig(**({knob: True} if knob else {}))
    sel = pol.frequency_strategy.build_selector(
        pol, config=config, planner=OfflinePlanner(machine, pol)
    )
    allowed = pol.frequency_indices_desc()
    ft = machine.freq_table
    assert sel.d_min == min(ft.watts_array[i] - ft.idle_watts for i in allowed)
    rng = np.random.default_rng(zlib.crc32(f"{platform}/{policy}/{knob}".encode()))
    now = 1000.0
    gated = rejected = 0
    for _ in range(40):
        acct = _random_load(rng, machine, allowed)
        power = acct.total_power()
        narrowest = int(rng.integers(1, machine.n_nodes + 1))
        # Headroom around the narrowest job's cheapest draw, so about
        # half of the draws gate.
        cap = power + narrowest * sel.d_min * rng.uniform(0.5, 1.5)
        reg = ReservationRegistry(machine.n_nodes)
        reg.add_powercap(PowercapReservation(0.0, now + rng.uniform(0.1, 5) * HOUR, cap))
        for _ in range(int(rng.integers(0, 3))):
            start = now + rng.uniform(0.1, 10) * HOUR
            reg.add_powercap(
                PowercapReservation(start, start + HOUR, power * rng.uniform(0.3, 1.2))
            )
        running = [
            (
                now + rng.uniform(0, 20) * HOUR,
                acct.busy_delta_watts(int(rng.integers(1, 8)), int(rng.choice(allowed))),
            )
            for _ in range(int(rng.integers(0, 12)))
        ]
        view = PowercapView(reg, acct, now, running)
        if not active_cap_rejects(narrowest, sel.d_min, reg.cap_at(now), power):
            continue
        gated += 1
        for n in range(narrowest, machine.n_nodes + 1):
            for walltime in (60.0, HOUR, 86400.0):
                assert not sel.decide(n, walltime, view).ok, (n, walltime)
                rejected += 1
    assert gated >= 5 and rejected >= 3 * gated
