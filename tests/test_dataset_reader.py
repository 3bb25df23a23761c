"""The dataset reader against the two-pass reference reader.

For every file, ``read_dataset_csv`` must give the reference's outcome: the
same dataset or the same error. The cases below are the edges of the file
format: blank lines and line ends, what ``float()`` and ``int()`` accept
beyond the writer's output, and fields past the csv and digit limits.
"""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engagekit.regression import generate_synthetic_dataset
from engagekit.storage import read_dataset_csv, write_dataset_csv

from test_storage_rewrite_differential import assert_same_outcome

HEADER = "engagement,reward,retention\n"


# 4097 rows cross the writer's chunk boundary.
@pytest.mark.parametrize("n", [1, 4097])
def test_a_written_file_reads_back_as_written(tmp_path, n):
    data = generate_synthetic_dataset(n, seed=n)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, data)
    assert read_dataset_csv(path) == data


@pytest.mark.parametrize("text", [
    # A blank line, which the csv reader reports.
    HEADER + "0.1,1.0,0\n\n0.2,2.0,1\n",
    HEADER + "\n0.1,1.0,0\n",
    HEADER + "0.1,1.0,0\n\n",
    # Line ends other than LF, and none at the end.
    HEADER.replace("\n", "\r\n") + "0.1,1.0,0\r\n0.2,2.0,1\r\n",
    HEADER + "0.1,1.0,0\r\n0.2,2.0,1\r0.3,3.0,0\n\n",
    HEADER + "0.1,1.0,0\r\n\r\n0.2,2.0,1\n",
    HEADER + "0.1,1.0,0\n0.2,2.0,1",
    # Beyond the writer's output: float() and int() accept these.
    HEADER + "1_0,1.0,0\n",
    HEADER + "0.5,1.0,1_0\n",
    HEADER + '"0.5",1.0,0\n',
    HEADER + '0.5,1.0,"1"\n',
    HEADER + "０.5,1.0,0\n",
    HEADER + "0.5,1.0,１\n",
    # Control and non-ASCII characters, which float() or int() refuses.
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


def test_plain_lines_end_within_the_csv_field_size_limit():
    # A written row whose feature is longer than a lowered field size limit.
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


# Files of number characters: rows shaped like the writer's, with at most
# one other row among them.
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
