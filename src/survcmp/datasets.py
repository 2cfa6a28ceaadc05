"""CSV ingestion and the bundled two-group tongue-cancer dataset.

The bundled file records time to death (weeks) for 80 tongue-cancer
patients split by tumor DNA profile: aneuploid (type 1, 52 patients) and
diploid (type 2, 28 patients); delta is 1 for an observed death and 0 for
censoring.
"""

from __future__ import annotations

import csv
from importlib import resources
from itertools import islice, repeat
from operator import itemgetter

import numpy as np

from .survival import Sample

__all__ = ["tongue_path", "ingest_csv", "load_tongue", "HORIZON_POLICIES"]

# what to do with recorded times beyond the analysis window [0, k]:
#   censor: administratively censored at k (the subject was under
#           observation and alive at the window end)
#   event:  an event at k (survival past the window counts as reaching
#           the truncated endpoint)
HORIZON_POLICIES = ("censor", "event")

# CSV rows are split into columns this many at a time and their lists are
# freed block by block: a large file never holds all of them at once, and
# they die before the garbage collector promotes them to the generations
# whose collections scan everything the process holds
_BLOCK_ROWS = 256


def tongue_path():
    """Filesystem path of the bundled dataset."""
    return resources.files("survcmp.data").joinpath("tongue.csv")


def ingest_csv(path, k: float, time_col: str = "time", status_col: str = "delta",
               group_col: str = "type", event_value: str = "1",
               censored_value: str = "0", beyond_horizon: str = "censor",
               ) -> tuple[Sample, Sample]:
    """Read a two-group CSV into a pair of Samples keyed by sorted label.

    The status column must contain only ``event_value`` and
    ``censored_value``.  Rows with time beyond k are rewritten per
    ``beyond_horizon`` (see :data:`HORIZON_POLICIES`).  Fields are
    stripped of surrounding whitespace and blank lines are skipped.
    Errors name the first offending row by its 1-based file row number
    (header = row 1).
    """
    if beyond_horizon not in HORIZON_POLICIES:
        raise ValueError(f"beyond_horizon must be one of {HORIZON_POLICIES}")
    k = float(k)
    if not np.isfinite(k) or k <= 0:
        raise ValueError("invalid horizon")

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        where = {name: i for i, name in enumerate(header)}  # last duplicate wins
        for col in (time_col, status_col, group_col):
            if col not in where:
                raise ValueError(f"missing column {col!r}")
        need = [where[time_col], where[status_col], where[group_col]]
        width = max(need) + 1
        raw_times, statuses, groups = [], [], []
        fields = {}  # field count of each row too short for a needed column
        rows = filter(None, reader)  # blank lines read as []
        while block := list(islice(rows, _BLOCK_ROWS)):
            try:
                columns = _columns(block, need)
            except IndexError:  # pad short rows; they fail below, in row order
                for i, row in enumerate(block):
                    if len(row) < width:
                        fields[len(raw_times) + i] = len(row)
                        block[i] = row + [""] * (width - len(row))
                columns = _columns(block, need)
            raw_times += columns[0]
            statuses += columns[1]
            groups += columns[2]
    n = len(raw_times)
    if not n:
        raise ValueError("expected exactly 2 groups, found 0")
    short = np.zeros(n, bool)
    short[list(fields)] = True
    times, parsed = _parse_times(raw_times)
    codes = {event_value: 1, censored_value: 0}
    status = np.fromiter(map(codes.get, statuses, repeat(-1)), np.int8, n)
    is_event, bad_status = status == 1, status < 0
    # `times` covers the rows before `parsed`; row `parsed`, if any, has no
    # number.  Within a row the checks keep the row-by-row reader's order.
    bad_time = ~np.isfinite(times) | (times <= 0)
    bad = short[:parsed] | bad_time | bad_status[:parsed]
    first = np.flatnonzero(bad)[0] if bad.any() else parsed
    if first < n:
        row_no = first + 2
        if short[first]:
            missing = header[width - 1]
            raise ValueError(
                f"row {row_no}: {fields[first]} fields, too few for column {missing!r}")
        if first == parsed:
            raise ValueError(f"row {row_no}: non-numeric time {raw_times[first]!r}")
        if bad_time[first]:
            raise ValueError(f"row {row_no}: time must be positive, got {raw_times[first]!r}")
        raise ValueError(f"row {row_no}: invalid status code {statuses[first]!r}")

    labels = {label: i for i, label in enumerate(dict.fromkeys(groups))}
    if len(labels) != 2:
        raise ValueError(f"expected exactly 2 groups, found {len(labels)}")
    beyond = times > k
    times[beyond] = k
    events = np.where(beyond, beyond_horizon == "event", is_event)
    group = np.fromiter(map(labels.__getitem__, groups), np.int64, n)
    samples = []
    for label in sorted(labels, key=_label_key):
        mine = group == labels[label]
        samples.append(Sample(times[mine], events[mine], k))
    return samples[0], samples[1]


def _columns(rows: list[list[str]], need: list[int]) -> list[list[str]]:
    """The stripped fields of each needed column, one C-level pass each;
    IndexError when a row is too short."""
    return [list(map(str.strip, map(itemgetter(i), rows))) for i in need]


def _parse_times(raw: list[str]) -> tuple[np.ndarray, int]:
    """``float`` of each string up to the first that is not a number, and
    how many that is (``len(raw)`` if all are)."""
    try:
        return np.array(list(map(float, raw)), dtype=float), len(raw)
    except ValueError:
        for parsed, value in enumerate(raw):
            try:
                float(value)
            except ValueError:
                return np.array(list(map(float, raw[:parsed])), dtype=float), parsed
        raise


def _label_key(label: str):
    try:
        return (0, float(label), label)
    except ValueError:
        return (1, 0.0, label)


def load_tongue(k: float = 200.0, beyond_horizon: str = "censor") -> tuple[Sample, Sample]:
    """The bundled dataset as (aneuploid, diploid) Samples on [0, k]."""
    with resources.as_file(tongue_path()) as path:
        return ingest_csv(path, k=k, beyond_horizon=beyond_horizon)
