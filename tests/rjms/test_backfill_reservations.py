"""Unit tests for EASY backfilling and the reservation registry."""

import math

import numpy as np
import pytest

from repro.cluster.curie import CURIE_TOPOLOGY
from repro.rjms.backfill import BackfillWindow, easy_backfill_window
from repro.rjms.reservations import (
    PowercapReservation,
    ReservationRegistry,
    ShutdownReservation,
    shutdown_savings_from_idle,
)


class TestEasyBackfill:
    def test_blocker_fits_now(self):
        w = easy_backfill_window(10, 20, [], now=5.0)
        assert w.shadow_time == 5.0
        assert w.extra_nodes == 10

    def test_shadow_at_first_sufficient_completion(self):
        running = [(100.0, 5), (50.0, 8), (200.0, 30)]
        w = easy_backfill_window(20, 4, running, now=0.0)
        # free 4 + 8 (t=50) = 12 < 20; + 5 (t=100) = 17 < 20; + 30 (t=200) -> 47.
        assert w.shadow_time == 200.0
        assert w.extra_nodes == 47 - 20

    def test_impossible_blocker(self):
        w = easy_backfill_window(100, 4, [(10.0, 5)], now=0.0)
        assert math.isinf(w.shadow_time)

    def test_admits_short_job(self):
        w = BackfillWindow(shadow_time=100.0, extra_nodes=2)
        assert w.admits(50, expected_end=99.0)
        assert not w.admits(50, expected_end=101.0)
        assert w.admits(2, expected_end=1e9)

    def test_overdue_running_jobs_treated_as_now(self):
        w = easy_backfill_window(5, 0, [(-10.0, 5)], now=0.0)
        assert w.shadow_time == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            easy_backfill_window(0, 5, [], now=0.0)
        with pytest.raises(ValueError):
            easy_backfill_window(5, -1, [], now=0.0)


class TestPowercapReservation:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowercapReservation(0.0, 10.0, watts=0)
        with pytest.raises(ValueError):
            PowercapReservation(10.0, 10.0, watts=100)

    def test_active_and_overlap(self):
        c = PowercapReservation(10.0, 20.0, watts=100)
        assert c.active_at(10.0) and c.active_at(19.9)
        assert not c.active_at(20.0) and not c.active_at(9.9)
        assert c.overlaps(0.0, 10.1)
        assert not c.overlaps(0.0, 10.0)
        assert not c.overlaps(20.0, 30.0)

    def test_open_ended(self):
        c = PowercapReservation(10.0, math.inf, watts=100)
        assert c.active_at(1e12)


class TestShutdownReservation:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            ShutdownReservation(0.0, 10.0, np.array([1, 1]))

    def test_savings_scattered_vs_grouped(self):
        topo = CURIE_TOPOLOGY
        # 18 scattered nodes (one per chassis).
        scattered = np.arange(18) * 18
        grouped = topo.nodes_of_chassis(0)
        s_scattered = shutdown_savings_from_idle(scattered, topo, 117.0)
        s_grouped = shutdown_savings_from_idle(grouped, topo, 117.0)
        assert s_scattered == pytest.approx(18 * (117 - 14))
        assert s_grouped == pytest.approx(18 * 117 + 248)
        assert s_grouped > s_scattered

    def test_savings_full_rack(self):
        topo = CURIE_TOPOLOGY
        s = shutdown_savings_from_idle(topo.nodes_of_rack(0), topo, 117.0)
        assert s == pytest.approx(5 * (18 * 117 + 248) + 900)

    def test_savings_empty(self):
        assert shutdown_savings_from_idle(np.array([], int), CURIE_TOPOLOGY, 117.0) == 0.0


class TestRegistry:
    def test_cap_at_picks_minimum(self):
        reg = ReservationRegistry(100)
        reg.add_powercap(PowercapReservation(0.0, 100.0, watts=500))
        reg.add_powercap(PowercapReservation(50.0, 150.0, watts=300))
        assert reg.cap_at(10.0) == 500
        assert reg.cap_at(75.0) == 300
        assert math.isinf(reg.cap_at(200.0))

    def test_future_caps(self):
        reg = ReservationRegistry(100)
        reg.add_powercap(PowercapReservation(50.0, 100.0, watts=500))
        assert len(reg.future_caps(0.0)) == 1
        assert len(reg.future_caps(50.0)) == 0

    def test_shutdowns_overlapping(self):
        reg = ReservationRegistry(100)
        sd = ShutdownReservation(50.0, 100.0, np.array([3, 4]))
        reg.add_shutdown(sd)
        (hit,) = reg.shutdowns_overlapping(0.0, 60.0)
        assert hit is sd
        assert reg.shutdowns_overlapping(100.0, 200.0) == []

    def test_unknown_nodes_rejected(self):
        reg = ReservationRegistry(10)
        with pytest.raises(ValueError):
            reg.add_shutdown(ShutdownReservation(0.0, 1.0, np.array([99])))
