"""CSV persistence for datasets, simulation traces and confusion matrices.

Floats are serialized with 17 significant digits, which round-trips every
64-bit value exactly; booleans are written as 0/1 so the files feed any
plotting tool directly. Writers emit LF line endings unconditionally, making
repeated runs byte-identical across platforms.

All four CSVs are written by one helper, :func:`_write_csv`: a header line,
then one ``%`` template per row (``%.17g`` per float field, which gives the
bytes of ``format(float(x), ".17g")``, and ``%d`` per integer or boolean
field), streamed to ``handle.writelines`` from a generator. Every field is a
number, so no field needs the csv module's quoting. Dataset rows reach the
helper in chunks of Python scalars (:func:`_write_dataset_chunks`), from a
``Dataset``'s columns or, in ``gen-data``, straight from the draws.

:func:`read_dataset_csv` reads a file back with the csv module's reader,
one row at a time.

Every writer is atomic: it writes a temp file in the target's directory and
moves it over the target with ``os.replace``, so the target holds either its
previous bytes or all of the new ones, and a failure leaves no temp file
behind. :func:`write_case_study_files` does the same for the case-study
report and its confusion matrix together: both change or neither does.
"""

from __future__ import annotations

import csv
import errno
import os
from contextlib import ExitStack, contextmanager
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .regression import ConfusionMatrix, Dataset
    from .simulator import SessionStep, TimelinePoint

__all__ = [
    "DATASET_HEADER",
    "SESSION_HEADER",
    "TIMELINE_HEADER",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_session_csv",
    "write_timeline_csv",
    "write_confusion_csv",
    "write_case_study_files",
]

DATASET_HEADER = ["engagement", "reward", "retention"]
SESSION_HEADER = ["task", "engagement", "reward", "difficulty", "success"]
TIMELINE_HEADER = [
    "step", "engagement", "skill", "reward", "difficulty",
    "retention_prob", "success", "intervened",
]

_CONFUSION_HEADER = ["", "predicted_0", "predicted_1"]

# One row template per CSV, in header order.
_DATASET_ROW = "%.17g,%.17g,%d\n"
_SESSION_ROW = "%d,%.17g,%.17g,%.17g,%d\n"
_TIMELINE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n"
_CONFUSION_ROW = "true_%d,%d,%d\n"
_session_fields = attrgetter("task_index", "engagement", "reward", "difficulty", "success")
_timeline_fields = attrgetter(
    "step", "engagement", "skill", "reward_granted", "difficulty",
    "retention_prob", "success", "intervened",
)

# Dataset rows converted to Python scalars per chunk: converting whole
# columns at once would hold a list of every value in memory.
_CHUNK_ROWS = 4096

@contextmanager
def _staged_files():
    """Write several files so that they all change or none does.

    Inside the block, ``stage(path)`` returns a text handle (UTF-8, no
    newline translation) on a new temp file beside path. When the block ends
    without error each temp file replaces its path with ``os.replace``, in
    staging order; after an error in the block, or in closing a handle,
    every temp file is removed and no path changes. Staging a path that is
    a directory raises IsADirectoryError at once, so that the renames, the
    only step left that could fail part way, do not fail on it. Staging a
    path whose ``os.path.realpath`` was already staged in the block raises
    ValueError naming both paths: the later rename would silently replace
    the earlier file. An OSError from creating or renaming a temp file
    names the path it stands for.
    """
    staged: dict[str, tuple[str, str]] = {}  # realpath -> (temp file, path)
    handles = ExitStack()

    def stage(path: str | Path):
        path = os.fspath(path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        real = os.path.realpath(path)
        if real in staged:
            raise ValueError(f"{path}: names the same file as {staged[real][1]}")
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
        # Mode "x" creates the file as open() would (0o666 less the umask),
        # so the replaced file keeps the usual permissions.
        try:
            handle = handles.enter_context(open(tmp, "x", encoding="utf-8", newline=""))
        except OSError as err:
            raise _naming(err, path) from None
        staged[real] = (tmp, path)
        return handle

    try:
        with handles:
            yield stage
        for tmp, path in staged.values():
            try:
                os.replace(tmp, path)
            except OSError as err:
                raise _naming(err, path) from None
    except BaseException:
        for tmp, _ in staged.values():
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def _naming(err: OSError, path: str) -> OSError:
    """err, as raised for path instead of the temp file staged beside it."""
    return type(err)(err.errno, err.strerror, path)


def _write_csv(handle, header: list[str], template: str, rows) -> None:
    """Write the header line, then ``template % row`` for each row."""
    handle.write(",".join(header) + "\n")
    handle.writelines(template % row for row in rows)


def write_dataset_csv(path: str | Path, dataset: Dataset) -> None:
    """Write the header and one row per sample; the columns are converted
    to Python scalars _CHUNK_ROWS rows at a time."""
    columns = (dataset.engagement, dataset.reward, dataset.retention)
    _write_dataset_chunks(path, ([column[start:start + _CHUNK_ROWS].tolist() for column in columns]
                                 for start in range(0, len(dataset), _CHUNK_ROWS)))


def _write_dataset_chunks(path: str | Path, chunks) -> int:
    """Write the header, then the rows of each chunk, an (engagement,
    reward, retention) triple of equal-length lists of Python scalars;
    return the number of rows labelled 1."""
    positives = 0

    def rows():
        nonlocal positives
        for engagement, reward, retention in chunks:
            positives += sum(retention)
            yield from zip(engagement, reward, retention)

    with _staged_files() as stage:
        _write_csv(stage(path), DATASET_HEADER, _DATASET_ROW, rows())
    return positives


def read_dataset_csv(path: str | Path) -> Dataset:
    """Parse a dataset CSV written by :func:`write_dataset_csv`, converting
    each row with ``float()`` and ``int()`` as the csv reader yields it.

    Raises:
        ValueError: on a wrong header or a malformed row (named by line,
            as is a field past ``csv.field_size_limit()``), on bytes that
            are not UTF-8, or on values that no Dataset holds (a label
            other than 0 or 1, a non-finite feature), named by the file.
            The first fault in file order is the one reported.
    """
    engagement, reward, retention = [], [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = csv.reader(handle)
            if next(rows, None) != DATASET_HEADER:
                raise ValueError(f"{path}: expected header {','.join(DATASET_HEADER)}")
            for lineno, row in enumerate(rows, start=2):
                if len(row) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
                try:
                    engagement.append(float(row[0]))
                    reward.append(float(row[1]))
                    retention.append(int(row[2]))
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from err
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from err
    except csv.Error as err:  # a field past csv.field_size_limit(), say
        raise ValueError(f"{path}:{rows.line_num}: {err}") from err
    if not engagement:
        raise ValueError(f"{path}: no data rows")
    # Loaded only once the file has parsed, so every fault above is reported
    # without numpy.
    import numpy as np

    from .regression import Dataset

    # Arrays, so Dataset need not scan the lists for bools: float() and
    # int() never return one.
    columns = np.array(engagement), np.array(reward), np.array(retention)
    try:
        return Dataset(*columns)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def write_session_csv(path: str | Path, steps: list[SessionStep]) -> None:
    """Write the header and one row per step."""
    with _staged_files() as stage:
        _write_csv(stage(path), SESSION_HEADER, _SESSION_ROW, map(_session_fields, steps))


def write_timeline_csv(path: str | Path, points: list[TimelinePoint]) -> None:
    """Write the header and one row per point."""
    with _staged_files() as stage:
        _write_csv(stage(path), TIMELINE_HEADER, _TIMELINE_ROW, map(_timeline_fields, points))


def write_confusion_csv(path: str | Path, cm: ConfusionMatrix) -> None:
    """2x2 layout matching the matrix convention: rows true, columns predicted."""
    with _staged_files() as stage:
        _write_csv(stage(path), _CONFUSION_HEADER, _CONFUSION_ROW, _confusion_rows(cm))


def write_case_study_files(report_path: str | Path, report_text: str,
                           confusion_path: str | Path, cm: ConfusionMatrix) -> None:
    """Write the report text and the confusion CSV so that both files change
    or, on any error, neither does."""
    with _staged_files() as stage:
        stage(report_path).write(report_text)
        _write_csv(stage(confusion_path), _CONFUSION_HEADER, _CONFUSION_ROW, _confusion_rows(cm))


def _confusion_rows(cm: ConfusionMatrix):
    return (0, cm.tn, cm.fp), (1, cm.fn, cm.tp)
