"""Differential tests: the CSV writers against the csv-module reference.

The reference is the original row-at-a-time writer: ``csv.writer`` with LF
line endings, each float formatted by ``format(float(x), ".17g")``, each
label and flag written as ``int(...)``, each index written as given. The
writers format rows with one ``%`` template and stream them in chunks, so
these tests pin the bytes: both must write exactly the same file.
"""

import csv
import io
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engagekit.regression import Dataset
from engagekit.simulator import SessionStep, TimelinePoint
from engagekit.storage import (
    DATASET_HEADER,
    SESSION_HEADER,
    TIMELINE_HEADER,
    _CHUNK_ROWS,
    write_dataset_csv,
    write_session_csv,
    write_timeline_csv,
)

# --- the reference writers ----------------------------------------------------


def _fmt(x):
    return format(float(x), ".17g")


def reference_dataset(dataset):
    handle = io.StringIO(newline="")
    out = csv.writer(handle, lineterminator="\n")
    out.writerow(DATASET_HEADER)
    for e, r, y in zip(dataset.engagement, dataset.reward, dataset.retention):
        out.writerow([_fmt(e), _fmt(r), int(y)])
    return handle.getvalue().encode("utf-8")


def reference_session(steps):
    handle = io.StringIO(newline="")
    out = csv.writer(handle, lineterminator="\n")
    out.writerow(SESSION_HEADER)
    for s in steps:
        out.writerow([s.task_index, _fmt(s.engagement), _fmt(s.reward),
                      _fmt(s.difficulty), int(s.success)])
    return handle.getvalue().encode("utf-8")


def reference_timeline(points):
    handle = io.StringIO(newline="")
    out = csv.writer(handle, lineterminator="\n")
    out.writerow(TIMELINE_HEADER)
    for p in points:
        out.writerow([p.step, _fmt(p.engagement), _fmt(p.skill),
                      _fmt(p.reward_granted), _fmt(p.difficulty),
                      _fmt(p.retention_prob), int(p.success), int(p.intervened)])
    return handle.getvalue().encode("utf-8")


def written(writer, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        writer(path, records)
        with open(path, "rb") as handle:
            return handle.read()


# --- inputs -------------------------------------------------------------------

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 2.2250738585072009e-308,
    1e308, -1e308, sys.float_info.max, -sys.float_info.max,
    1.0, -1.0, 2.0, 1e16, 2.0**53, 0.1, 1 / 3,
]
finite_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(min_value=-(2**53), max_value=2**53).map(float),  # integral floats
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
)
# The records do not validate their fields, so the writers see anything a
# caller stores: non-finite floats, bools and ints where floats belong.
record_floats = st.one_of(
    finite_floats,
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.booleans(),
    st.integers(min_value=-(2**60), max_value=2**60),
)

sessions = st.lists(
    st.builds(SessionStep, st.integers(), record_floats, record_floats, record_floats, st.booleans()),
    max_size=12,
)
timelines = st.lists(
    st.builds(
        TimelinePoint, st.integers(), record_floats, record_floats, record_floats,
        record_floats, record_floats, st.booleans(), st.booleans(),
    ),
    max_size=12,
)


# --- tests --------------------------------------------------------------------

def test_chunk_size_is_the_one_the_row_counts_straddle():
    assert _CHUNK_ROWS == 4096


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(finite_floats, finite_floats, st.sampled_from([0, 1])), min_size=1, max_size=20)
)
def test_dataset_writer_equals_reference(rows):
    dataset = Dataset(*zip(*rows))
    assert written(write_dataset_csv, dataset) == reference_dataset(dataset)


@pytest.mark.parametrize("n", [4095, 4096, 4097, 2 * 4096 + 1])
@settings(max_examples=10, deadline=None)
@given(
    pool=st.lists(finite_floats, min_size=1, max_size=64),
    labels=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=7),
)
def test_dataset_writer_equals_reference_across_chunks(n, pool, labels):
    # The columns cycle through the drawn pool, the rewards in reverse, so
    # rows on both sides of each chunk boundary carry drawn values.
    engagement = np.resize(np.array(pool, dtype=np.float64), n)
    reward = np.resize(np.array(pool[::-1], dtype=np.float64), n)[::-1]
    dataset = Dataset(engagement, reward, np.resize(np.array(labels), n))
    out = written(write_dataset_csv, dataset)
    assert out.count(b"\n") == n + 1
    assert out == reference_dataset(dataset)


@settings(max_examples=100, deadline=None)
@given(sessions)
def test_session_writer_equals_reference(steps):
    assert written(write_session_csv, steps) == reference_session(steps)


@settings(max_examples=100, deadline=None)
@given(timelines)
def test_timeline_writer_equals_reference(points):
    assert written(write_timeline_csv, points) == reference_timeline(points)
