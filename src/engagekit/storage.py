"""CSV persistence for datasets and simulation traces.

Floats are serialized with 17 significant digits, which round-trips every
64-bit value exactly; booleans are written as 0/1 so the files feed any
plotting tool directly. Writers emit LF line endings unconditionally, making
repeated runs byte-identical across platforms.

The dataset, session and timeline writers format each row with one ``%``
template (``%.17g`` per float field, which gives the bytes of
``format(float(x), ".17g")``, and ``%d`` per integer or boolean field) and
stream the rows to ``handle.writelines`` from a generator. Every field is a
number, so no field ever needed the csv module's quoting.

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

# One row template per writer, in header order.
_DATASET_ROW = "%.17g,%.17g,%d\n"
_SESSION_ROW = "%d,%.17g,%.17g,%.17g,%d\n"
_TIMELINE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n"
_session_fields = attrgetter("task_index", "engagement", "reward", "difficulty", "success")
_timeline_fields = attrgetter(
    "step", "engagement", "skill", "reward_granted", "difficulty",
    "retention_prob", "success", "intervened",
)

# Dataset rows converted to Python scalars per chunk: converting whole
# columns at once would hold a list of every value in memory.
_CHUNK_ROWS = 4096


def _header(columns: list[str]) -> str:
    return ",".join(columns) + "\n"


@contextmanager
def _staged_files():
    """Write several files so that they all change or none does.

    Inside the block, ``stage(path)`` returns a text handle (UTF-8, no
    newline translation) on a new temp file beside path. When the block ends
    without error each temp file replaces its path with ``os.replace``, in
    staging order; after an error in the block, or in closing a handle,
    every temp file is removed and no path changes. Staging a path that is
    a directory raises IsADirectoryError at once, so that the renames, the
    only step left that could fail part way, do not fail on it.
    """
    staged: list[tuple[str, str]] = []
    handles = ExitStack()

    def stage(path: str | Path):
        path = os.fspath(path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
        # Mode "x" creates the file as open() would (0o666 less the umask),
        # so the replaced file keeps the usual permissions.
        handle = handles.enter_context(open(tmp, "x", encoding="utf-8", newline=""))
        staged.append((tmp, path))
        return handle

    try:
        with handles:
            yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


@contextmanager
def _replacing(path: str | Path):
    """A text handle whose bytes replace path in one step on success."""
    with _staged_files() as stage:
        yield stage(path)


def write_dataset_csv(path: str | Path, dataset: Dataset) -> None:
    """Write the header and one row per sample; the columns are converted
    to Python scalars _CHUNK_ROWS rows at a time."""
    with _replacing(path) as handle:
        handle.write(_header(DATASET_HEADER))
        handle.writelines(_DATASET_ROW % row for row in _dataset_rows(dataset))


def _dataset_rows(dataset: Dataset):
    columns = (dataset.engagement, dataset.reward, dataset.retention)
    for start in range(0, len(dataset), _CHUNK_ROWS):
        yield from zip(*(column[start:start + _CHUNK_ROWS].tolist() for column in columns))


def read_dataset_csv(path: str | Path) -> Dataset:
    """Parse a dataset CSV written by :func:`write_dataset_csv`.

    Raises:
        ValueError: on a wrong header or a malformed row (named by line),
            or on values that no Dataset holds (a label other than 0 or 1,
            a non-finite feature), named by the file.
    """
    import numpy as np  # loaded only to read a dataset, as Dataset is

    from .regression import Dataset

    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
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


def write_session_csv(path: str | Path, steps: list[SessionStep]) -> None:
    """Write the header and one row per step, each formatted by one template."""
    with _replacing(path) as handle:
        handle.write(_header(SESSION_HEADER))
        handle.writelines(_SESSION_ROW % _session_fields(s) for s in steps)


def write_timeline_csv(path: str | Path, points: list[TimelinePoint]) -> None:
    """Write the header and one row per point, each formatted by one template."""
    with _replacing(path) as handle:
        handle.write(_header(TIMELINE_HEADER))
        handle.writelines(_TIMELINE_ROW % _timeline_fields(p) for p in points)


def write_confusion_csv(path: str | Path, cm: ConfusionMatrix) -> None:
    """2x2 layout matching the matrix convention: rows true, columns predicted."""
    with _replacing(path) as handle:
        _write_confusion(handle, cm)


def write_case_study_files(report_path: str | Path, report_text: str,
                           confusion_path: str | Path, cm: ConfusionMatrix) -> None:
    """Write the report text and the confusion CSV so that both files change
    or, on any error, neither does."""
    with _staged_files() as stage:
        stage(report_path).write(report_text)
        _write_confusion(stage(confusion_path), cm)


def _write_confusion(handle, cm: ConfusionMatrix) -> None:
    out = csv.writer(handle, lineterminator="\n")
    out.writerow(["", "predicted_0", "predicted_1"])
    out.writerow(["true_0", cm.tn, cm.fp])
    out.writerow(["true_1", cm.fn, cm.tp])
