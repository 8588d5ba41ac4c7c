"""Advanced reservations: power caps and planned node switch-offs.

Section V: "SLURM reservation characteristics have been extended by a
new Watts parameter in order to specify a particular amount of power
reserved for a specific time slot", and the offline scheduling phase
triggers node shutdowns "through a specific type of reservations".

A :class:`PowercapReservation` limits the *whole-cluster* power to
``watts`` during its window.  A :class:`ShutdownReservation` pins a
set of nodes that must be powered off during its window; the offline
planner creates one per cap window for SHUT/MIX policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.cluster.topology import Topology


@dataclass(frozen=True)
class PowercapReservation:
    """A cluster-wide power budget over ``[start, end)``.

    ``watts`` is the allowed consumption ("the system power which is
    allocated for computation", Figure 8).  ``end`` may be ``inf``:
    the paper's "set for now with no time restriction".
    """

    start: float
    end: float
    watts: float

    def __post_init__(self) -> None:
        if self.watts <= 0:
            raise ValueError("powercap watts must be positive")
        if not self.start < self.end:
            raise ValueError(f"empty powercap window [{self.start}, {self.end})")

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end

    def overlaps(self, t0: float, t1: float) -> bool:
        """Window intersects ``[t0, t1)``."""
        return self.start < t1 and t0 < self.end


@dataclass(frozen=True)
class ShutdownReservation:
    """Nodes planned to be powered off over ``[start, end)``.

    ``savings_from_idle_watts`` is precomputed by the planner: watts
    saved during the window relative to those nodes sitting idle —
    including the chassis/rack bonuses the grouping harvests.
    """

    start: float
    end: float
    nodes: np.ndarray
    savings_from_idle_watts: float = 0.0

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"empty shutdown window [{self.start}, {self.end})")
        nodes = np.asarray(self.nodes, dtype=np.int64)
        if nodes.size and len(np.unique(nodes)) != nodes.size:
            raise ValueError("duplicate nodes in shutdown reservation")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end

    def overlaps(self, t0: float, t1: float) -> bool:
        return self.start < t1 and t0 < self.end


def shutdown_savings_from_idle(nodes: np.ndarray, topology: Topology, idle_watts: float) -> float:
    """Watts saved by powering ``nodes`` off, relative to them idling.

    Scattered nodes save ``idle - down`` each; every *complete*
    chassis additionally cuts its 18 BMCs and its 248 W of enclosure
    components; every complete rack cuts a further 900 W (Figure 2).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        return 0.0
    down = topology.node_down_watts
    per_chassis = np.bincount(
        topology.chassis_of_node[nodes], minlength=topology.n_chassis
    )
    full_chassis = per_chassis == topology.nodes_per_chassis
    n_full_chassis = int(full_chassis.sum())
    per_rack = np.bincount(
        topology.rack_of_chassis[np.nonzero(full_chassis)[0]],
        minlength=topology.racks,
    )
    n_full_racks = int((per_rack == topology.chassis_per_rack).sum())
    dark_nodes = n_full_chassis * topology.nodes_per_chassis
    scattered = nodes.size - dark_nodes
    return (
        scattered * (idle_watts - down)
        + dark_nodes * idle_watts  # BMC dark too
        + n_full_chassis * topology.chassis_watts
        + n_full_racks * topology.rack_watts
    )


class ReservationRegistry:
    """Holds all reservations of a replay and answers overlap queries."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._powercaps: list[PowercapReservation] = []
        self._shutdowns: list[ShutdownReservation] = []

    # -- registration ----------------------------------------------------------------

    def add_powercap(self, cap: PowercapReservation) -> None:
        self._powercaps.append(cap)
        self._powercaps.sort(key=lambda c: c.start)

    def add_shutdown(self, sd: ShutdownReservation) -> None:
        if sd.nodes.size and (sd.nodes.max() >= self.n_nodes or sd.nodes.min() < 0):
            raise ValueError("shutdown reservation references unknown nodes")
        self._shutdowns.append(sd)
        self._shutdowns.sort(key=lambda s: s.start)

    @property
    def powercaps(self) -> tuple[PowercapReservation, ...]:
        return tuple(self._powercaps)

    @property
    def shutdowns(self) -> tuple[ShutdownReservation, ...]:
        return tuple(self._shutdowns)

    def __iter__(self) -> Iterator[PowercapReservation]:  # pragma: no cover
        return iter(self._powercaps)

    # -- queries ------------------------------------------------------------------------

    def cap_at(self, t: float) -> float:
        """Effective cluster power budget at instant ``t`` (inf if none)."""
        caps = [c.watts for c in self._powercaps if c.active_at(t)]
        return min(caps) if caps else math.inf

    def caps_overlapping(self, t0: float, t1: float) -> list[PowercapReservation]:
        """Cap windows intersecting ``[t0, t1)``, by start time."""
        return [c for c in self._powercaps if c.overlaps(t0, t1)]

    def future_caps(self, t: float) -> list[PowercapReservation]:
        """Caps starting strictly after ``t``."""
        return [c for c in self._powercaps if c.start > t]

    def shutdowns_overlapping(self, t0: float, t1: float) -> list[ShutdownReservation]:
        return [s for s in self._shutdowns if s.overlaps(t0, t1)]
