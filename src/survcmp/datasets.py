"""CSV ingestion and the bundled two-group tongue-cancer dataset.

The bundled file records time to death (weeks) for 80 tongue-cancer
patients split by tumor DNA profile: aneuploid (type 1, 52 patients) and
diploid (type 2, 28 patients); delta is 1 for an observed death and 0 for
censoring.
"""

from __future__ import annotations

import csv
import inspect
from importlib import resources
from itertools import islice

import numpy as np

from .survival import HORIZON_POLICIES, Sample, _beyond_horizon

__all__ = ["TONGUE_K", "tongue_path", "ingest_csv", "load_tongue"]

TONGUE_K = 200.0  # the bundled data's window end, in weeks


def tongue_path():
    """Filesystem path of the bundled dataset, in this copy of the package."""
    return resources.files(__package__) / "data" / "tongue.csv"


def ingest_csv(path, k: float, time_col: str = "time", status_col: str = "delta",
               group_col: str = "type", event_value: str = "1",
               censored_value: str = "0", beyond_horizon: str = "censor",
               ) -> tuple[Sample, Sample]:
    """Read a two-group CSV into a pair of Samples keyed by sorted label.

    The dialect is that of ``csv.reader``'s default: comma delimiter,
    ``"`` quoting with doubled quotes inside, and ``\\n``, ``\\r\\n`` or
    ``\\r`` line ends.  Blank lines are skipped, every field is stripped of
    surrounding whitespace, fields past the needed columns are ignored and
    times are read as Python's ``float`` spells them.  The status column
    must contain only ``event_value`` and ``censored_value``, which must
    differ.  Rows with time beyond k are rewritten per ``beyond_horizon``
    (see :data:`HORIZON_POLICIES`).  Group labels sort as numbers where
    ``float`` reads them as one (NaN aside), and as text after them.

    numpy's C reader (``np.loadtxt``) reads a file with no quote, no NUL
    character and no line longer than ``csv.field_size_limit()``.  When
    the C reader cannot, or a row fails a check, ``csv.reader`` reads the
    file row by row and stops at the first row that fails one, so no later
    fault in the file (an over-long field, an undecodable byte) is met.
    Errors name that row by its 1-based file line (header = line 1, blank
    lines counted); a quoted field spanning lines is named by its last line.
    """
    if event_value == censored_value:
        raise ValueError("event_value and censored_value must differ")
    if beyond_horizon not in HORIZON_POLICIES:
        raise ValueError(f"beyond_horizon must be one of {HORIZON_POLICIES}")
    k = float(k)
    if not np.isfinite(k) or k <= 0:
        raise ValueError("invalid horizon")
    names = (time_col, status_col, group_col)
    codes = {event_value: True, censored_value: False}
    times, is_event, groups = (_read_fast(path, names, codes)
                               or _read_rows(path, names, codes))

    label = {raw: raw.strip() for raw in set(groups.tolist())}
    labels = sorted(set(label.values()), key=_label_key)
    if len(labels) != 2:
        raise ValueError(f"expected exactly 2 groups, found {len(labels)}")
    in_first = _among(groups, [raw for raw, name in label.items() if name == labels[0]])
    times, events = _beyond_horizon(times, is_event, k, beyond_horizon)
    # each group's rows in file order, as indices: a gather by index runs
    # several times faster than one by mask where the groups interleave
    first, second = np.flatnonzero(in_first), np.flatnonzero(~in_first)
    return (Sample(times.take(first), events.take(first), k),
            Sample(times.take(second), events.take(second), k))


def _need(header: list[str], names) -> list[int]:
    """Index of each named column; the last of duplicate names wins."""
    where = {name: i for i, name in enumerate(header)}
    for name in names:
        if name not in where:
            raise ValueError(f"missing column {name!r}")
    return [where[name] for name in names]


def _among(fields: np.ndarray, members: list[str]) -> np.ndarray:
    """Which strings of an object array are among ``members``."""
    if len(members) > 4:  # one dict pass beats a comparison pass per member
        return np.fromiter(map(set(members).__contains__, fields.tolist()), bool, fields.size)
    flags = np.zeros(fields.size, bool)
    for member in members:
        # an object scalar: a numpy string would drop trailing NULs
        flags |= fields == np.array(member, dtype=object)
    return flags


def _read_fast(path, names, codes):
    """Times, event flags and raw group fields by numpy's C reader, or None
    when it cannot read the file as ``csv.reader`` would or a row fails a
    check."""
    # universal newlines end lines where csv.reader ends unquoted records
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError:  # reported as the csv.reader path meets it
        return None
    # csv.reader alone knows quotes and fields longer than its limit (so
    # maybe on a line that long); NUL is an error to it before Python 3.11
    if '"' in text or "\0" in text:
        return None
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    need = _need(lines[0].split(",") if lines[0] else [], names)
    if not any(islice(lines, 1, None)):  # no rows; loadtxt would warn
        return None
    try:
        # object fields hold each field whole, however long
        rows = np.loadtxt(lines, dtype=[("t", float), ("s", object), ("g", object)],
                          delimiter=",", comments=None, skiprows=1, usecols=need, ndmin=1)
    except ValueError:  # a short row, or a time only float() reads
        return None
    times, statuses = rows["t"], rows["s"]
    # each distinct raw status once: True, False, or None for neither code
    code = {raw: codes.get(raw.strip()) for raw in set(statuses.tolist())}
    # NaN fails both comparisons
    if None in code.values() or not ((times > 0) & (times < np.inf)).all():
        return None
    return times, _among(statuses, [raw for raw, event in code.items() if event]), rows["g"]


def _read_rows(path, names, codes):
    """Times, event flags and raw group fields by ``csv.reader``;
    ValueError naming the file line of the first row that fails a check."""
    times, is_event, groups = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        t, s, g = need = _need(header, names)
        last = max(need)
        for row in filter(None, reader):  # blank lines read as []
            if len(row) <= last:
                raise ValueError(f"row {reader.line_num}: {len(row)} fields, "
                                 f"too few for column {header[last]!r}")
            raw_time = row[t].strip()
            try:
                time = float(raw_time)
            except ValueError:
                raise ValueError(
                    f"row {reader.line_num}: non-numeric time {raw_time!r}") from None
            if not 0 < time < np.inf:  # NaN fails both comparisons
                raise ValueError(
                    f"row {reader.line_num}: time must be positive, got {raw_time!r}")
            event = codes.get(row[s].strip())
            if event is None:
                raise ValueError(
                    f"row {reader.line_num}: invalid status code {row[s].strip()!r}")
            times.append(time)
            is_event.append(event)
            groups.append(row[g])
    return np.array(times, float), np.array(is_event, bool), np.array(groups, object)


def _label_key(label: str):
    """Numbers first, by value; then text.  A label ``float`` reads as NaN
    sorts as text, so the order is total and no row order can change it."""
    try:
        value = float(label)
    except ValueError:
        value = np.nan
    return (0, value, label) if value == value else (1, 0.0, label)


# ingest_csv's policy, so that the bundled data's default is the reader's
_BEYOND_HORIZON = inspect.signature(ingest_csv).parameters["beyond_horizon"].default


def load_tongue(k: float = TONGUE_K,
                beyond_horizon: str = _BEYOND_HORIZON) -> tuple[Sample, Sample]:
    """The bundled dataset as (aneuploid, diploid) Samples on [0, k]."""
    with resources.as_file(tongue_path()) as path:
        return ingest_csv(path, k=k, beyond_horizon=beyond_horizon)
