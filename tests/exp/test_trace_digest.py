"""The columnar, chunked trace digest against the row-wise one.

:func:`repro.exp.runner.trace_digest` renders the recorder's columns a
chunk of rows at a time.  :func:`reference_trace_digest` is the
row-wise original: one :class:`~repro.sim.metrics.SeriesSample` per
row and one ``_hexfloat`` call per float.  Every pinned digest rests on
the two hashing the same bytes, so they must agree on every recorder,
including the values a replay never produces: NaN, ±inf and -0.0 in
every column, ``None`` job fields, int-valued and NumPy-scalar job
fields, empty recorders, and rows on both sides of a chunk boundary.
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exp import runner
from repro.exp.runner import replay_scenario, trace_digest
from repro.exp.spec import CapWindow, Scenario
from repro.sim.metrics import JobRecord, MetricsRecorder

HOUR = 3600.0


def _hexfloat(x: float) -> str:
    """Bit-exact, platform-independent float encoding for digests."""
    if x != x:  # NaN
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x).hex()


def reference_trace_digest(recorder: MetricsRecorder) -> str:
    """The row-wise digest: every job record, then every sample row."""
    h = hashlib.sha256()
    for jid in sorted(recorder.jobs):
        r = recorder.jobs[jid]
        h.update(
            "|".join(
                (
                    str(r.job_id),
                    str(r.cores),
                    str(r.n_nodes),
                    _hexfloat(r.submit_time),
                    _hexfloat(r.start_time) if r.start_time is not None else "-",
                    _hexfloat(r.end_time) if r.end_time is not None else "-",
                    _hexfloat(r.freq_ghz) if r.freq_ghz is not None else "-",
                    _hexfloat(r.degradation),
                    r.state,
                )
            ).encode()
        )
        h.update(b"\n")
    for s in recorder.samples:
        h.update(
            "|".join(
                (
                    _hexfloat(s.time),
                    *(_hexfloat(c) for c in s.cores_by_freq),
                    _hexfloat(s.off_cores),
                    _hexfloat(s.power_watts),
                    _hexfloat(s.idle_watts),
                    _hexfloat(s.down_watts),
                    _hexfloat(s.infra_watts),
                    _hexfloat(s.bonus_watts),
                    _hexfloat(s.busy_watts),
                )
            ).encode()
        )
        h.update(b"\n")
    return h.hexdigest()


#: every float64, the specials included
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0]
)
#: int-valued and NumPy-scalar spellings of a float field
_FLOAT_FIELD = (
    _ANY_FLOAT
    | _ANY_FLOAT.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**53), 2**53)
    | st.integers(-(2**31), 2**31 - 1).map(np.int64)
)
_INT_FIELD = st.integers(0, 10**6) | st.integers(0, 10**6).map(np.int64)
_SCALAR_FIELDS = 7


@st.composite
def recorders(draw):
    """A recorder filled through its public API with arbitrary values."""
    n_freq = draw(st.integers(0, 3))
    rec = MetricsRecorder([1.0 + 0.5 * k for k in range(n_freq)])
    # Non-decreasing times (equal times collapse onto one row) with NaN
    # anywhere: a NaN time compares false both ways, so sample() takes
    # it and whatever follows it.
    times = sorted(
        draw(st.lists(st.floats(allow_nan=False), max_size=12))
    )
    for t in times:
        if draw(st.booleans()) and draw(st.booleans()):
            t = math.nan
        rec.sample(
            t,
            cores_by_freq=draw(st.lists(_ANY_FLOAT, min_size=n_freq, max_size=n_freq)),
            **dict(
                zip(
                    (
                        "off_cores",
                        "power_watts",
                        "idle_watts",
                        "down_watts",
                        "infra_watts",
                        "bonus_watts",
                        "busy_watts",
                    ),
                    draw(
                        st.lists(
                            _ANY_FLOAT, min_size=_SCALAR_FIELDS, max_size=_SCALAR_FIELDS
                        )
                    ),
                )
            ),
        )
    ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=12))
    optional = st.none() | _FLOAT_FIELD
    for jid in ids:
        rec.jobs[jid] = JobRecord(
            job_id=draw(st.just(jid) | st.just(np.int64(jid))),
            cores=draw(_INT_FIELD),
            n_nodes=draw(_INT_FIELD),
            submit_time=draw(_FLOAT_FIELD),
            start_time=draw(optional),
            end_time=draw(optional),
            freq_ghz=draw(optional),
            degradation=draw(_FLOAT_FIELD),
            state=draw(st.sampled_from(["pending", "running", "completed", "killed"])),
        )
    return rec


@settings(max_examples=300, deadline=None)
@given(rec=recorders(), chunk=st.sampled_from([1, 2, 3, 5, 1024]))
def test_matches_the_row_wise_digest(rec, chunk):
    with mock.patch.object(runner, "_DIGEST_CHUNK", chunk):
        assert trace_digest(rec) == reference_trace_digest(rec)


def test_empty_recorder():
    rec = MetricsRecorder([1.2, 2.7])
    assert trace_digest(rec) == reference_trace_digest(rec)
    assert trace_digest(rec) == hashlib.sha256().hexdigest()


@pytest.mark.parametrize("n", [runner._DIGEST_CHUNK, runner._DIGEST_CHUNK + 1])
def test_rows_and_jobs_across_a_real_chunk_boundary(n):
    """More rows and jobs than one chunk, at the shipped chunk size."""
    rec = MetricsRecorder([1.2, 2.7])
    rng = np.random.default_rng(n)
    for i in range(2 * n + 1):
        vals = rng.uniform(-1e6, 1e6, size=9)
        rec.sample(
            float(i),
            cores_by_freq=vals[:2],
            off_cores=vals[2],
            power_watts=vals[3],
            idle_watts=vals[4],
            down_watts=vals[5],
            infra_watts=vals[6],
            bonus_watts=vals[7],
            busy_watts=vals[8],
        )
    for jid in range(n + 1):
        rec.job_submitted(jid, 16, 1, float(jid))
        if jid % 3:
            rec.job_started(jid, jid + 0.5, 2.7, 1.25)
        if jid % 3 == 2:
            rec.job_finished(jid, jid + 7.0, "killed" if jid % 2 else "completed")
    assert rec.n_samples == 2 * n + 1
    assert trace_digest(rec) == reference_trace_digest(rec)


def test_digest_does_not_read_the_row_view():
    """The digest reads the columns: it works with the row view gone."""
    sc = Scenario(
        name="digest-columns",
        interval="medianjob",
        policy="MIX",
        scale=1 / 56,
        duration=2 * HOUR,
        caps=(CapWindow(1800.0, 5400.0, 0.5),),
    )
    rec = replay_scenario(sc).recorder
    expected = reference_trace_digest(rec)

    def no_rows(self):
        raise AssertionError("trace_digest read MetricsRecorder.samples")

    with mock.patch.object(MetricsRecorder, "samples", property(no_rows)):
        assert trace_digest(rec) == expected
