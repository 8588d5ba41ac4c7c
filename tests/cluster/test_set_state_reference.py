"""``PowerAccountant.set_state`` against its NumPy-enum original.

:meth:`~repro.cluster.power.PowerAccountant.set_state` compares the
state vector with plain ints and counts the old states with one
``bincount``.  :func:`reference_set_state` is the original: IntEnum
comparisons, ``np.subtract.at`` per count, a dict lookup for the
watts.  Every pinned digest depends on the accountant's bits, so after
each call of a random transition sequence — all five states, BUSY
re-steps to another frequency, whole chassis and racks going dark and
lit again — both accountants must hold identical arrays and an
identical ``_node_watts_sum``, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.curie import curie_machine
from repro.cluster.power import PowerAccountant
from repro.cluster.states import NodeState

#: one rack of five 18-node chassis
MACHINE = curie_machine(scale=1 / 56)
N_NODES = MACHINE.n_nodes
PER_CHASSIS = MACHINE.topology.nodes_per_chassis
N_FREQ = len(MACHINE.freq_table)


def _reference_watts_for(self: PowerAccountant, state, freq_index):
    ft = self.freq_table
    if state == NodeState.BUSY:
        return ft.watts_array[freq_index]
    return {
        NodeState.OFF: ft.down_watts,
        NodeState.IDLE: ft.idle_watts,
        NodeState.BOOTING: self.boot_watts,
        NodeState.SHUTTING_DOWN: self.shutdown_watts,
    }[NodeState(state)]


def reference_set_state(
    self: PowerAccountant, node_ids, state, *, freq_index=None
) -> None:
    """The original transition: enum comparisons and ``subtract.at``."""
    ids = np.asarray(node_ids, dtype=np.int64)
    if ids.size == 0:
        return
    if state == NodeState.BUSY and freq_index is None:
        raise ValueError("freq_index is required when setting nodes BUSY")
    self.version += 1

    old_states = self.state[ids]
    old_watts = self._node_watts[ids]

    busy_mask = old_states == NodeState.BUSY
    if busy_mask.any():
        np.subtract.at(self.busy_count_by_freq, self.freq_index[ids[busy_mask]], 1)
    np.subtract.at(self.count_by_state, old_states, 1)

    was_off = old_states == NodeState.OFF
    becomes_off = state == NodeState.OFF
    if was_off.any() and not becomes_off:
        self._update_darkness(ids[was_off], delta=-1)
    if becomes_off and (~was_off).any():
        self._update_darkness(ids[~was_off], delta=+1)

    self.state[ids] = state
    if state == NodeState.BUSY:
        self.freq_index[ids] = freq_index
        new_watts = self.freq_table.watts_array[freq_index]
        self.busy_count_by_freq[freq_index] += ids.size
    else:
        new_watts = _reference_watts_for(self, state, 0)
    self.count_by_state[state] += ids.size

    self._node_watts[ids] = new_watts
    self._node_watts_sum += float(np.sum(new_watts - old_watts))


_ARRAYS = (
    "state",
    "freq_index",
    "_node_watts",
    "_off_per_chassis",
    "_dark_per_rack",
    "busy_count_by_freq",
    "count_by_state",
)


def assert_same(a: PowerAccountant, b: PowerAccountant) -> None:
    for name in _ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert float(a._node_watts_sum).hex() == float(b._node_watts_sum).hex()
    assert (a._n_dark_chassis, a._n_dark_racks, a.version) == (
        b._n_dark_chassis,
        b._n_dark_racks,
        b.version,
    )


def _pair() -> tuple[PowerAccountant, PowerAccountant]:
    # Distinct transition watts, so a mixed-up state shows in the sums.
    return tuple(
        PowerAccountant(
            MACHINE.topology,
            MACHINE.freq_table,
            boot_watts=151.25,
            shutdown_watts=97.5,
        )
        for _ in range(2)
    )


def _apply_both(new, ref, nodes, state, freq_index) -> None:
    new.set_state(nodes, state, freq_index=freq_index)
    reference_set_state(ref, nodes, state, freq_index=freq_index)
    assert_same(new, ref)


@st.composite
def transitions(draw):
    """One call: a node set (random, a whole chassis or the whole rack),
    a state (as the enum member or its int) and a frequency index
    (required for BUSY, optional otherwise)."""
    kind = draw(st.sampled_from(["random", "chassis", "rack"]))
    if kind == "random":
        nodes = draw(st.lists(st.integers(0, N_NODES - 1), unique=True, max_size=40))
    elif kind == "chassis":
        c = draw(st.integers(0, N_NODES // PER_CHASSIS - 1))
        nodes = list(range(c * PER_CHASSIS, (c + 1) * PER_CHASSIS))
    else:
        nodes = list(range(N_NODES))
    # Enclosure-wide calls lean towards OFF so that darkness flips.
    states = list(NodeState) if kind == "random" else [NodeState.OFF] * 3 + list(NodeState)
    state = draw(st.sampled_from(states))
    if draw(st.booleans()):
        state = int(state)
    freq = st.integers(0, N_FREQ - 1)
    freq_index = draw(freq if state == NodeState.BUSY else st.none() | freq)
    return np.array(nodes, dtype=np.int64), state, freq_index


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(transitions(), max_size=30))
def test_random_sequences_match_the_reference(ops):
    new, ref = _pair()
    for nodes, state, freq_index in ops:
        _apply_both(new, ref, nodes, state, freq_index)
    new.verify()


def test_busy_resteps_and_darkness_flips():
    """A fixed walk through every branch: BUSY re-steps, a chassis and
    then the whole rack going dark, partial and full relighting."""
    new, ref = _pair()
    rack = np.arange(N_NODES)
    chassis0 = np.arange(PER_CHASSIS)
    steps = [
        (rack[::2], NodeState.BUSY, N_FREQ - 1),
        (rack[::4], NodeState.BUSY, 0),  # re-step half the busy nodes
        (rack[::2], NodeState.BUSY, 1),  # re-step all of them again
        (chassis0, NodeState.SHUTTING_DOWN, None),
        (chassis0, NodeState.OFF, None),
        (rack, NodeState.OFF, None),
        (chassis0[:3], NodeState.BOOTING, None),
        (chassis0[:3], NodeState.IDLE, None),
        (rack[PER_CHASSIS:], NodeState.IDLE, None),
        (rack, NodeState.BUSY, 2),
        (rack, NodeState.OFF, 5),  # a frequency on a non-BUSY call is ignored
    ]
    dark_seen = set()
    for nodes, state, freq_index in steps:
        _apply_both(new, ref, nodes, state, freq_index)
        dark_seen.add((new.n_dark_chassis, new.n_dark_racks))
    new.verify()
    assert (1, 0) in dark_seen and (N_NODES // PER_CHASSIS, 1) in dark_seen


def test_rejects_busy_without_frequency_and_unknown_states():
    acct = MACHINE.new_accountant()
    with pytest.raises(ValueError):
        acct.set_state(np.array([0]), NodeState.BUSY)
    with pytest.raises(ValueError):
        acct.set_state(np.array([0]), 7)
    assert acct.version == 0
    acct.verify()
