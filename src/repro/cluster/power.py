"""Whole-cluster power accounting.

The paper's controller computes cluster power by summing statically
configured per-state node watts (Section IV-A), plus — in our explicit
model — the shared chassis/rack infrastructure whose disappearance when
a complete enclosure powers down is the "power bonus" of Section III-B.

The accountant keeps everything incrementally: every node state change
costs O(k) in the number of touched nodes, and reading the total power
is O(1).  The simulator changes states millions of times during a
replay, so this is the hot path (per the profiling-first guidance, the
state vectors are NumPy arrays and all bulk transitions are
vectorised).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.frequency import FrequencyTable
from repro.cluster.states import N_NODE_STATES, NodeState
from repro.cluster.topology import Topology

# The states as plain ints for the hot path: comparing a NumPy array
# with an IntEnum member makes NumPy look the member up for array
# dunders on every call, which costs more than the comparison itself.
_OFF = int(NodeState.OFF)
_IDLE = int(NodeState.IDLE)
_BUSY = int(NodeState.BUSY)
_BOOTING = int(NodeState.BOOTING)
_SHUTTING_DOWN = int(NodeState.SHUTTING_DOWN)


@dataclass
class PowerBreakdown:
    """Instantaneous power decomposed by consumer category (watts)."""

    busy_by_freq: dict[float, float] = field(default_factory=dict)
    idle: float = 0.0
    down: float = 0.0
    transitions: float = 0.0
    infrastructure: float = 0.0

    @property
    def total(self) -> float:
        return (
            sum(self.busy_by_freq.values())
            + self.idle
            + self.down
            + self.transitions
            + self.infrastructure
        )


class PowerAccountant:
    """Tracks node states and derives cluster power incrementally.

    Parameters
    ----------
    topology:
        Enclosure hierarchy (gives infra watts and bonus grouping).
    freq_table:
        Node DVFS table (gives per-state node watts).
    boot_watts, shutdown_watts:
        Power drawn during boot / shutdown transitions.  Defaults to
        idle watts (a booting node has fans and both sockets powered).
    """

    def __init__(
        self,
        topology: Topology,
        freq_table: FrequencyTable,
        *,
        boot_watts: float | None = None,
        shutdown_watts: float | None = None,
    ) -> None:
        self.topology = topology
        self.freq_table = freq_table
        self.boot_watts = freq_table.idle_watts if boot_watts is None else boot_watts
        self.shutdown_watts = (
            freq_table.idle_watts if shutdown_watts is None else shutdown_watts
        )

        n = topology.n_nodes
        #: bumped on every state mutation; readers may key caches
        #: derived from the state vector (e.g. the controller's idle
        #: free list) on it
        self.version = 0
        #: per-node state (NodeState values)
        self.state = np.full(n, NodeState.IDLE, dtype=np.int8)
        #: per-node DVFS index; only meaningful while BUSY
        self.freq_index = np.full(n, freq_table.max_index, dtype=np.int16)
        #: per-node watts under the "BMC always on when OFF" convention
        self._node_watts = np.full(n, freq_table.idle_watts, dtype=np.float64)
        self._node_watts_sum = float(n * freq_table.idle_watts)

        #: number of OFF nodes per chassis, to detect complete enclosures
        self._off_per_chassis = np.zeros(topology.n_chassis, dtype=np.int32)
        self._dark_per_rack = np.zeros(topology.racks, dtype=np.int32)
        self._n_dark_chassis = 0
        self._n_dark_racks = 0

        #: busy node count per DVFS step (for utilisation-by-frequency series)
        self.busy_count_by_freq = np.zeros(len(freq_table), dtype=np.int64)
        self.count_by_state = np.zeros(len(NodeState), dtype=np.int64)
        self.count_by_state[NodeState.IDLE] = n

    # -- static reference points ------------------------------------------------------

    def max_power(self) -> float:
        """All nodes busy at the highest frequency, full infrastructure.

        This is the reference the paper normalises power caps against
        (``P = lambda * N * Pmax`` plus, in our explicit model, the
        always-on infrastructure).
        """
        t = self.topology
        return t.n_nodes * self.freq_table.max.watts + t.infrastructure_watts()

    def idle_floor(self) -> float:
        """All nodes idle, full infrastructure (Figure 6's light-grey band)."""
        t = self.topology
        return t.n_nodes * self.freq_table.idle_watts + t.infrastructure_watts()

    def min_power(self) -> float:
        """Everything (nodes and enclosures) switched off."""
        return 0.0

    # -- state transitions --------------------------------------------------------------

    def _watts_for(self, state: int, freq_index: np.ndarray | int) -> np.ndarray | float:
        """Node watts (BMC-on convention) for a state/frequency."""
        ft = self.freq_table
        if state == _BUSY:
            return ft.watts_array[freq_index]
        if state == _IDLE:
            return ft.idle_watts
        if state == _OFF:
            return ft.down_watts
        if state == _BOOTING:
            return self.boot_watts
        if state == _SHUTTING_DOWN:
            return self.shutdown_watts
        raise ValueError(f"{state!r} is not a valid NodeState")

    def set_state(
        self,
        node_ids: np.ndarray,
        state: NodeState,
        *,
        freq_index: int | None = None,
    ) -> None:
        """Move ``node_ids`` to ``state`` (all to the same state).

        ``freq_index`` is required for BUSY and ignored otherwise.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        if ids.size == 0:
            return
        state = int(state)
        if state == _BUSY and freq_index is None:
            raise ValueError("freq_index is required when setting nodes BUSY")
        new_watts = self._watts_for(state, freq_index)
        self.version += 1

        old_states = self.state[ids]
        old_watts = self._node_watts[ids]
        # One histogram of the old states serves the per-state counts,
        # the busy check and both darkness checks.
        old_counts = np.bincount(old_states, minlength=N_NODE_STATES)

        # Book-keeping for busy-by-frequency counts.
        if old_counts[_BUSY]:
            self.busy_count_by_freq -= np.bincount(
                self.freq_index[ids[old_states == _BUSY]],
                minlength=len(self.busy_count_by_freq),
            )
        self.count_by_state -= old_counts

        # Enclosure darkness tracking: nodes leaving/entering OFF.
        n_was_off = old_counts[_OFF]
        if state != _OFF:
            if n_was_off:
                self._update_darkness(ids[old_states == _OFF], delta=-1)
        elif n_was_off < ids.size:
            self._update_darkness(ids[old_states != _OFF], delta=+1)

        # Apply the new state.
        self.state[ids] = state
        if state == _BUSY:
            self.freq_index[ids] = freq_index
            self.busy_count_by_freq[freq_index] += ids.size
        self.count_by_state[state] += ids.size

        self._node_watts[ids] = new_watts
        self._node_watts_sum += float(np.sum(new_watts - old_watts))

    def _update_darkness(self, node_ids: np.ndarray, *, delta: int) -> None:
        """Maintain chassis/rack full-off counters when OFF membership changes."""
        t = self.topology
        chassis = t.chassis_of_node[node_ids]
        before_full = self._off_per_chassis[chassis] == t.nodes_per_chassis
        np.add.at(self._off_per_chassis, chassis, delta)
        after_full = self._off_per_chassis[chassis] == t.nodes_per_chassis
        # A chassis may appear several times in `chassis`; recompute the
        # unique set whose fullness flipped.
        flipped = np.unique(chassis[before_full != after_full])
        if flipped.size == 0:
            return
        now_dark = self._off_per_chassis[flipped] == t.nodes_per_chassis
        dark_delta = np.where(now_dark, 1, -1)
        self._n_dark_chassis += int(dark_delta.sum())
        racks = t.rack_of_chassis[flipped]
        rack_before = self._dark_per_rack[racks] == t.chassis_per_rack
        np.add.at(self._dark_per_rack, racks, dark_delta)
        rack_after = self._dark_per_rack[racks] == t.chassis_per_rack
        rack_flipped = np.unique(racks[rack_before != rack_after])
        if rack_flipped.size:
            rack_dark = self._dark_per_rack[rack_flipped] == t.chassis_per_rack
            self._n_dark_racks += int(np.where(rack_dark, 1, -1).sum())

    # -- readings ------------------------------------------------------------------------

    @property
    def n_dark_chassis(self) -> int:
        """Chassis whose 18 nodes are all OFF (infra + BMCs unpowered)."""
        return self._n_dark_chassis

    @property
    def n_dark_racks(self) -> int:
        """Racks whose 5 chassis are all dark."""
        return self._n_dark_racks

    def bonus_watts(self) -> float:
        """Infrastructure + BMC watts currently saved by dark enclosures.

        This is the "power bonus" rectangle plotted in Figures 6/7.
        """
        t = self.topology
        return (
            self._n_dark_chassis * t.chassis_bonus_watts()
            + self._n_dark_racks * t.rack_watts
        )

    def total_power(self) -> float:
        """Instantaneous cluster power, O(1)."""
        t = self.topology
        infra = (
            (t.n_chassis - self._n_dark_chassis) * t.chassis_watts
            + (t.racks - self._n_dark_racks) * t.rack_watts
        )
        bmc_saved = (
            self._n_dark_chassis * t.nodes_per_chassis * self.freq_table.down_watts
        )
        return self._node_watts_sum - bmc_saved + infra

    def breakdown(self) -> PowerBreakdown:
        """Decomposition of :meth:`total_power` by consumer category."""
        ft = self.freq_table
        t = self.topology
        busy = {
            ft.steps[i].ghz: float(self.busy_count_by_freq[i] * ft.watts_array[i])
            for i in range(len(ft))
            if self.busy_count_by_freq[i]
        }
        down_nodes = int(self.count_by_state[NodeState.OFF])
        dark_nodes = self._n_dark_chassis * t.nodes_per_chassis
        bd = PowerBreakdown(
            busy_by_freq=busy,
            idle=float(self.count_by_state[NodeState.IDLE] * ft.idle_watts),
            down=float((down_nodes - dark_nodes) * ft.down_watts),
            transitions=float(
                self.count_by_state[NodeState.BOOTING] * self.boot_watts
                + self.count_by_state[NodeState.SHUTTING_DOWN] * self.shutdown_watts
            ),
            infrastructure=(
                (t.n_chassis - self._n_dark_chassis) * t.chassis_watts
                + (t.racks - self._n_dark_racks) * t.rack_watts
            ),
        )
        return bd

    # -- projections used by the online algorithm ------------------------------------------

    def busy_delta_watts(self, n_nodes: int, freq_index: int) -> float:
        """Power increase from turning ``n_nodes`` IDLE nodes BUSY at a step.

        Idle->busy transitions never change enclosure darkness, so the
        delta is purely nodal.  This is the
        ``N_{job.DVFS} * job.requiredNodes`` term of Algorithm 2.
        """
        ft = self.freq_table
        return n_nodes * (ft.watts_array[freq_index] - ft.idle_watts)

    def idle_delta_watts(self, n_nodes: int, freq_index: int) -> float:
        """Power decrease from a job at ``freq_index`` releasing its nodes."""
        return -self.busy_delta_watts(n_nodes, freq_index)

    def verify(self) -> None:
        """Recompute everything from scratch and assert consistency.

        Test/debug helper: O(n).  Raises ``AssertionError`` on drift.
        """
        ft = self.freq_table
        t = self.topology
        watts = np.empty(t.n_nodes, dtype=np.float64)
        for s in NodeState:
            mask = self.state == s
            if s == NodeState.BUSY:
                watts[mask] = ft.watts_array[self.freq_index[mask]]
            else:
                watts[mask] = self._watts_for(s, 0)
        assert abs(float(watts.sum()) - self._node_watts_sum) < 1e-6 * max(
            1.0, self._node_watts_sum
        ), "node watts drift"
        off = self.state == NodeState.OFF
        off_per_chassis = np.bincount(
            t.chassis_of_node[off], minlength=t.n_chassis
        )
        assert np.array_equal(off_per_chassis, self._off_per_chassis)
        dark = off_per_chassis == t.nodes_per_chassis
        assert int(dark.sum()) == self._n_dark_chassis
        dark_per_rack = np.bincount(
            t.rack_of_chassis[np.nonzero(dark)[0]], minlength=t.racks
        )
        assert int((dark_per_rack == t.chassis_per_rack).sum()) == self._n_dark_racks
        counts = np.bincount(self.state, minlength=len(NodeState))
        assert np.array_equal(counts, self.count_by_state)
        busy_freqs = np.bincount(
            self.freq_index[self.state == NodeState.BUSY], minlength=len(ft)
        )
        assert np.array_equal(busy_freqs, self.busy_count_by_freq)
