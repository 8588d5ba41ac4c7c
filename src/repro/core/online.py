"""Algorithm 2 — the online phase: per-job CPU-frequency selection.

At allocation time the controller "temporarily alters the states of
the candidate nodes, computes the resultant consumption and compares
it to the defined and planned powercap" (Section V).  Two kinds of
constraint exist:

* an **active** cap (now inside a window): the projected *current*
  cluster power must stay under it, or the job stays pending — the
  strict gate of Algorithm 2;
* a **planned** cap (the job's expected execution interval overlaps a
  future window): the job's frequency is chosen so the *projected*
  window power fits.  If even the lowest allowed step does not fit,
  the job is started anyway at that lowest step — the system
  "prepares itself" by shifting new jobs to low frequencies while the
  window approaches (Figure 6), and relies on the strict gate once
  the window opens (the paper's default of "no extreme actions": the
  scheduler waits for running jobs to drain below the cap).  The
  strict pre-window gate is available as an option for ablation.

The projected power of a future window assumes: running jobs whose
(stretched-walltime) end passes the window start keep their nodes
busy at their assigned frequency; planned switch-off reservations
deliver their full savings; every other node idles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.cluster.power import PowerAccountant
from repro.core.policies import Policy
from repro.rjms.reservations import ReservationRegistry

#: Relative tolerance of power comparisons: it absorbs the rounding of
#: the headroom arithmetic, and is small enough that the strict gate
#: admits no measurable overshoot (1e-6 let a job exceed a 24 kW active
#: cap by 0.021 W).
_EPS = 1e-12


def active_cap_rejects(n_nodes: int, d_min: float, cap: float, power: float) -> bool:
    """Whether an active cap of ``cap`` watts, with the cluster drawing
    ``power``, rejects a job of ``n_nodes`` nodes whose per-node busy
    delta is ``d_min`` — and so every job at least that wide at any
    step drawing at least that much.

    This is the comparison every selector's strict gate makes (the
    extra draw against the headroom plus the same tolerance), applied
    to the cheapest case.  Since IEEE multiplication rounds
    monotonically, ``n * d >= n_nodes * d_min`` for ``n >= n_nodes``
    and ``d >= d_min >= 0``; a negative ``d_min`` (a step drawing less
    than idle) never rejects here, as a wider job could then fit where
    a narrower one does not.
    """
    return d_min >= 0 and n_nodes * d_min > (cap - power) + _EPS * max(1.0, abs(cap))


@dataclass(frozen=True)
class FrequencyDecision:
    """Outcome of the online algorithm for one candidate job."""

    ok: bool
    freq_index: int
    freq_ghz: float
    degradation: float
    #: True when the job only fit via the pre-window soft fallback.
    soft: bool = False
    #: Why the job cannot start (when ``ok`` is False).
    reason: str = ""


@dataclass
class _WindowConstraint:
    """A future cap window with its projected base power."""

    start: float
    end: float
    watts: float
    base: float  # projected cluster power during the window so far


class PowercapView:
    """Per-scheduling-pass snapshot of all power constraints.

    Build one per pass; it pre-computes each future window's projected
    base power, after which every candidate evaluation is
    O(allowed frequencies).  ``running`` yields one ``(expected_end,
    busy_delta_watts)`` pair per running job, in running order (the
    controller keeps these pairs up to date as jobs start, end and are
    re-stretched); a window's base adds the delta of every job ending
    after the window starts, one addition at a time in that order.
    Windows are only projected when a future cap exists, so without
    one the view costs O(1).  Call :meth:`note_start` for every job
    started during the pass so later candidates see the committed
    power.
    """

    def __init__(
        self,
        registry: ReservationRegistry,
        accountant: PowerAccountant,
        now: float,
        running: Iterable[tuple[float, float]],
    ) -> None:
        self.accountant = accountant
        self.now = now
        self.active_cap = registry.cap_at(now)
        self.windows: list[_WindowConstraint] = []
        future = registry.future_caps(now)
        if not future:
            return
        idle_floor = accountant.idle_floor()
        for cap in future:
            base = idle_floor
            for sd in registry.shutdowns_overlapping(cap.start, cap.end):
                base -= sd.savings_from_idle_watts
            self.windows.append(
                _WindowConstraint(cap.start, cap.end, cap.watts, base)
            )
        for end, delta in running:
            for w in self.windows:
                if end > w.start:
                    w.base += delta

    @property
    def cap_is_active(self) -> bool:
        return math.isfinite(self.active_cap)

    def has_constraints(self) -> bool:
        return self.cap_is_active or bool(self.windows)

    def current_power(self) -> float:
        return self.accountant.total_power()

    def note_start(self, n_nodes: int, freq_index: int, expected_end: float) -> None:
        """Commit a started job to every window it overlaps."""
        delta = self.accountant.busy_delta_watts(n_nodes, freq_index)
        for w in self.windows:
            if expected_end > w.start:
                w.base += delta

    def headroom_active(self) -> float:
        """Watts left under the active cap right now (inf if none)."""
        if not self.cap_is_active:
            return math.inf
        return self.active_cap - self.current_power()

    def window_headroom(self, start_before: float) -> float:
        """Smallest projected headroom among windows starting before
        ``start_before`` (inf when none overlap)."""
        room = math.inf
        for w in self.windows:
            if w.start < start_before:
                room = min(room, w.watts - w.base)
        return room


class FrequencySelector:
    """Chooses each job's DVFS step against the current constraints."""

    def __init__(
        self,
        policy: Policy,
        *,
        strict_future: bool = False,
        cluster_rule: bool = False,
    ) -> None:
        self.policy = policy
        #: gate starts on future windows too (ablation; default soft)
        self.strict_future = strict_future
        #: use the "all idle nodes could run at f" rule of Section IV-B
        #: instead of the per-job Algorithm 2 walk (ablation)
        self.cluster_rule = cluster_rule
        self._indices_desc = policy.frequency_indices_desc()
        # The ladder walk runs ~backfill_depth times per scheduling
        # pass; everything per-step that does not depend on the
        # candidate job is precomputed once (same expressions, so the
        # decisions stay bit-identical to recomputing them inline).
        ft = policy.freq_table
        self._deg_desc = [
            policy.degradation(ft.steps[idx].ghz) for idx in self._indices_desc
        ]
        self._delta_per_node_desc = [
            ft.watts_array[idx] - ft.idle_watts for idx in self._indices_desc
        ]
        #: per-node busy delta of the cheapest allowed step: a job of
        #: ``n`` nodes adds at least ``n * d_min`` watts at any step
        #: this selector may choose (the controller's active-cap gate)
        self.d_min = float(min(self._delta_per_node_desc))
        self._step_info = {
            idx: (ft.steps[idx].ghz, self._deg_desc[pos])
            for pos, idx in enumerate(self._indices_desc)
        }

    #: whether this selector ever re-scales running jobs mid-window;
    #: False lets the controller keep its drained-pass fast path
    tracks_observed: bool = False

    def pass_rescale_watts(self, active_cap_watts: float) -> float | None:
        """Power target running jobs should be re-scaled down to at
        the start of a scheduling pass, or ``None`` to leave them
        alone (the default: Algorithm 2 only decides at allocation
        time).  Feedback selectors (:mod:`repro.policy.strategies`)
        override this to track the active cap each pass.
        """
        return None

    def decide(
        self,
        n_nodes: int,
        walltime: float,
        view: PowercapView,
    ) -> FrequencyDecision:
        """Run Algorithm 2 for a candidate allocation of ``n_nodes``.

        ``walltime`` is the user's requested limit at full speed; the
        overlap horizon stretches with each candidate frequency.
        """
        if not self.policy.enforces_caps or not view.has_constraints():
            top = self._indices_desc[0]
            return self._mk(True, top, soft=False)
        if self.cluster_rule:
            return self._decide_cluster_rule(n_nodes, walltime, view)

        active = view.cap_is_active
        active_room = view.headroom_active()
        tol = _EPS * max(1.0, abs(view.active_cap)) if active else _EPS
        windows = view.windows
        now = view.now
        deltas = self._delta_per_node_desc
        for pos, idx in enumerate(self._indices_desc):
            delta = n_nodes * deltas[pos]
            if active and delta > active_room + tol:
                continue
            if windows:
                future_room = view.window_headroom(
                    now + walltime * self._deg_desc[pos]
                )
                if delta > future_room + tol:
                    continue
            return self._mk(True, idx, soft=False)

        # Nothing fits.  The strict gate applies for the active cap;
        # future-only violations fall back to the lowest allowed step.
        lowest = self._indices_desc[-1]
        delta = n_nodes * deltas[-1]
        if active and delta > active_room + _EPS * max(1.0, view.active_cap):
            return self._mk(False, lowest, reason="active powercap")
        if self.strict_future:
            return self._mk(False, lowest, reason="planned powercap")
        return self._mk(True, lowest, soft=True)

    def _decide_cluster_rule(
        self, n_nodes: int, walltime: float, view: PowercapView
    ) -> FrequencyDecision:
        """Section IV-B variant: the optimal frequency is the highest
        one *all idle nodes* could run at within the cap."""
        acct = view.accountant
        from repro.cluster.states import NodeState

        n_idle = int(acct.count_by_state[NodeState.IDLE])
        chosen = None
        for idx in self._indices_desc:
            ghz = acct.freq_table.steps[idx].ghz
            deg = self.policy.degradation(ghz)
            cluster_delta = acct.busy_delta_watts(n_idle, idx)
            room = min(
                view.headroom_active(),
                view.window_headroom(view.now + walltime * deg),
            )
            if cluster_delta <= room + _EPS * max(1.0, abs(room)):
                chosen = idx
                break
        if chosen is None:
            chosen = self._indices_desc[-1]
        # The job itself must still fit.
        delta = acct.busy_delta_watts(n_nodes, chosen)
        ghz = acct.freq_table.steps[chosen].ghz
        deg = self.policy.degradation(ghz)
        active_ok = (not view.cap_is_active) or delta <= view.headroom_active() + _EPS * max(
            1.0, view.active_cap
        )
        future_ok = delta <= view.window_headroom(view.now + walltime * deg) + _EPS
        if active_ok and future_ok:
            return self._mk(True, chosen, soft=False)
        if not active_ok:
            return self._mk(False, chosen, reason="active powercap")
        if self.strict_future:
            return self._mk(False, chosen, reason="planned powercap")
        return self._mk(True, self._indices_desc[-1], soft=True)

    def _mk(
        self, ok: bool, idx: int, *, soft: bool = False, reason: str = ""
    ) -> FrequencyDecision:
        ghz, deg = self._step_info[idx]
        return FrequencyDecision(
            ok=ok,
            freq_index=idx,
            freq_ghz=ghz,
            degradation=deg,
            soft=soft,
            reason=reason,
        )
