"""Differential tests: the confusion writer and the dataset reader against
the implementations they replaced.

The confusion writer formats its rows with the same ``%`` template helper
as the other CSV writers; its reference is the ``csv.writer`` it replaced.
The dataset reader converts each row as ``csv.reader`` yields it; its
reference, ``two_pass_reader``, is the earlier reader kept verbatim, which
held every row's strings before converting any, except that a csv.Error
(a field past the field size limit) becomes a ValueError naming the line.
On UTF-8 text both readers must return equal datasets or raise the same
ValueError with the same message.
"""

import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engagekit.regression import ConfusionMatrix, Dataset, generate_synthetic_dataset
from engagekit.storage import (
    DATASET_HEADER,
    read_dataset_csv,
    write_case_study_files,
    write_confusion_csv,
    write_dataset_csv,
)

# --- the confusion writer -----------------------------------------------------


def reference_confusion(cm):
    handle = io.StringIO(newline="")
    out = csv.writer(handle, lineterminator="\n")
    out.writerow(["", "predicted_0", "predicted_1"])
    out.writerow(["true_0", cm.tn, cm.fp])
    out.writerow(["true_1", cm.fn, cm.tp])
    return handle.getvalue().encode("utf-8")


counts = st.one_of(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=2**80))
matrices = st.builds(ConfusionMatrix, counts, counts, counts, counts)


@settings(max_examples=200, deadline=None)
@given(matrices)
@example(ConfusionMatrix(tn=0, fp=0, fn=0, tp=0))
@example(ConfusionMatrix(tn=188, fp=0, fn=4, tp=8))
def test_confusion_writer_equals_reference(cm):
    with tempfile.TemporaryDirectory() as tmp:
        single, paired, report = (os.path.join(tmp, name) for name in ("cm.csv", "pair.csv", "r.json"))
        write_confusion_csv(single, cm)
        write_case_study_files(report, "{}\n", paired, cm)
        with open(single, "rb") as a, open(paired, "rb") as b:
            assert a.read() == b.read() == reference_confusion(cm)


# --- the dataset reader -------------------------------------------------------


def two_pass_reader(path):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except csv.Error as err:
            raise ValueError(f"{path}:{reader.line_num}: {err}") from err
    if not rows or rows[0] != DATASET_HEADER:
        raise ValueError(f"{path}: expected header {','.join(DATASET_HEADER)}")
    engagement, reward, retention = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        try:
            engagement.append(float(row[0]))
            reward.append(float(row[1]))
            retention.append(int(row[2]))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
    if not engagement:
        raise ValueError(f"{path}: no data rows")
    try:
        # Arrays, so Dataset need not scan the lists for bools: float() and
        # int() never return one.
        return Dataset(np.array(engagement), np.array(reward), np.array(retention))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def outcome(reader, path):
    """What reader makes of path: ("ok", dataset) or (type, message)."""
    try:
        return "ok", reader(path)
    except ValueError as err:
        return type(err), str(err)


def assert_same_outcome(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert outcome(read_dataset_csv, path) == outcome(two_pass_reader, path)


# Fields that parse, fields that do not, and fields the csv module quotes.
fields = st.one_of(
    st.sampled_from([
        "0", "1", "2", "-1", "0.5", "5.0", "1e-300", "5e-324", "1.7976931348623157e308",
        "nan", "inf", "-inf", "1e400", " 1", "1_0", "0x1", "", "oops", "True",
        '"0.25"', '"1,5"', '"a\nb"', '"1"', "١",
    ]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(alphabet=st.sampled_from('01.e-+ ,"\n\rx'), max_size=6),
)
rows = st.lists(fields, min_size=0, max_size=4).map(",".join)
headers = st.sampled_from([
    "engagement,reward,retention", "engagement,reward", "a,b,c", "", '"engagement",reward,retention',
    "engagement,reward,retention,extra",
])
files = st.builds(
    lambda header, body, eol, last: eol.join([header, *body]) + (eol if last else ""),
    headers, st.lists(rows, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(files)
@example("engagement,reward,retention\n0.1,1.0,0\n0.9,9.0,1\n")
@example("engagement,reward,retention\n")
@example("engagement,reward,retention\n\n")
@example("")
@example("engagement,reward,retention\n0.1,1.0,0\n0.1,1.0\n0.1,oops,1\n")
@example("engagement,reward,retention\n0.1,oops,1\n0.1,1.0\n")
@example("engagement,reward,retention\n0.5,5.0,2\n")
@example('engagement,reward,retention\n"0.1\n",1.0,0\n0.2,x,1\n')
def test_reader_equals_two_pass_reader(text):
    assert_same_outcome(text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"), max_size=80))
def test_reader_equals_two_pass_reader_on_any_text(body):
    # NUL is left out: Python before 3.11 fails on it inside csv itself, and
    # the two-pass reader reported that before any row's fault.
    assert_same_outcome("engagement,reward,retention\n" + body)


@pytest.mark.parametrize("n", [1, 2, 4097])
def test_reader_equals_two_pass_reader_on_written_files(tmp_path, n):
    path = tmp_path / "data.csv"
    write_dataset_csv(path, generate_synthetic_dataset(n, seed=n))
    assert read_dataset_csv(path) == two_pass_reader(path)
