"""The dataset reader's two paths against the two-pass reference reader.

``read_dataset_csv`` hands a plain file (the written header, then
newline-ended lines of number characters) to numpy's C parser and any other
file to the csv reader. Whichever path reads a file, the outcome must be
the reference's: the same dataset or the same error. The cases below are
the ones where ``np.loadtxt`` and the csv reader with ``float()`` and
``int()`` part ways, and a plain file must really take the C path.
"""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engagekit import storage
from engagekit.regression import generate_synthetic_dataset
from engagekit.storage import _MAX_PLAIN_LINE, read_dataset_csv, write_dataset_csv

from test_storage_rewrite_differential import assert_same_outcome

HEADER = "engagement,reward,retention\n"


@pytest.fixture
def csv_path_fails(monkeypatch):
    """Make the csv path fail, so that a read succeeds only on the C path."""
    def fail(path):
        raise AssertionError(f"{path} took the csv path")
    monkeypatch.setattr(storage, "_parse_rows", fail)


@pytest.mark.parametrize("n", [1, 4097])
def test_a_written_file_takes_the_c_path(tmp_path, csv_path_fails, n):
    data = generate_synthetic_dataset(n, seed=n)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, data)
    assert read_dataset_csv(path) == data


@pytest.mark.parametrize("text", [
    # loadtxt skips a blank line; the csv reader reports it.
    HEADER + "0.1,1.0,0\n\n0.2,2.0,1\n",
    HEADER + "\n0.1,1.0,0\n",
    HEADER + "0.1,1.0,0\n\n",
    # Line ends other than LF, and none at the end.
    HEADER.replace("\n", "\r\n") + "0.1,1.0,0\r\n0.2,2.0,1\r\n",
    HEADER + "0.1,1.0,0\r\n0.2,2.0,1\r0.3,3.0,0\n\n",
    HEADER + "0.1,1.0,0\r\n\r\n0.2,2.0,1\n",
    HEADER + "0.1,1.0,0\n0.2,2.0,1",
    # float() and int() accept these; loadtxt does not.
    HEADER + "1_0,1.0,0\n",
    HEADER + "0.5,1.0,1_0\n",
    HEADER + '"0.5",1.0,0\n',
    HEADER + '0.5,1.0,"1"\n',
    HEADER + "０.5,1.0,0\n",
    HEADER + "0.5,1.0,１\n",
    # loadtxt accepts these; float() or int() does not.
    HEADER + "\x1c0.5,1.0,0\n",
    HEADER + "0.5,1.0,1\x1f\n",
    HEADER + "0.5,1.0,ᅰ1\n",
    # Fields longer than int()'s digit limit or the csv field size limit.
    HEADER + "0.5,1.0," + "0" * 5000 + "1\n",
    HEADER + "0." + "0" * 200_000 + "1,1.0,0\n",
], ids=[
    "blank-line", "blank-first-line", "blank-last-line", "crlf", "mixed-line-ends", "crlf-blank-line",
    "no-final-newline", "underscore-feature", "underscore-label", "quoted-feature", "quoted-label",
    "full-width-feature", "full-width-label", "unit-separator", "unit-separator-label", "hangul-label",
    "label-past-digit-limit", "feature-past-field-limit",
])
def test_reader_equals_two_pass_reader_where_the_parsers_differ(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("extra, c_path", [(0, True), (1, False)])
def test_plain_lines_end_at_the_length_bound(tmp_path, extra, c_path):
    label = "0" * (_MAX_PLAIN_LINE - len("0.5,1.0,1") + extra) + "1"
    line = "0.5,1.0," + label
    assert len(line) == _MAX_PLAIN_LINE + extra
    path = tmp_path / "data.csv"
    path.write_text(HEADER + line + "\n", encoding="utf-8")
    assert (storage._parse_plain(path) is not None) == c_path
    assert_same_outcome(HEADER + line + "\n")


def test_plain_lines_end_within_the_csv_field_size_limit():
    limit = csv.field_size_limit(8)
    try:
        assert_same_outcome(HEADER + "0.5,1.0,0\n0.123456789,1.0,1\n")
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("text, line", [
    (HEADER + "0.1,1.0,0\n0." + "0" * 200_000 + "1,1.0,0\n", 3),
    ("engagement,reward," + "r" * 200_000 + "\n0.1,1.0,0\n", 1),
], ids=["row", "header"])
def test_a_field_past_the_csv_field_size_limit_names_its_line(tmp_path, text, line):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path)
    assert str(err.value) == f"{path}:{line}: field larger than field limit ({csv.field_size_limit()})"


# Files of number characters: plain rows, with at most one other row among
# them, so that most files take the C path.
features = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x)
labels = st.sampled_from(["0", "1", "+1", "-0", "01", "00", "2", "-1"])
number_text = st.text(alphabet="0123456789+-.eE", max_size=6)
fields = st.one_of(features, labels, number_text, st.floats().map(repr))
plain_rows = st.tuples(features, features, labels).map(",".join)
other_rows = st.lists(fields, max_size=4).map(",".join)
number_files = st.builds(
    lambda plain, other, at, end: HEADER + "\n".join(plain[:at] + other + plain[at:]) + end,
    st.lists(plain_rows, max_size=6), st.lists(other_rows, max_size=1), st.integers(0, 6),
    st.sampled_from(["\n", "\n", "\n", ""]),
)


@settings(max_examples=300, deadline=None)
@given(number_files)
def test_reader_equals_two_pass_reader_on_number_files(text):
    assert_same_outcome(text)
