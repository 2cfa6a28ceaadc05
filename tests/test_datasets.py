"""CSV ingestion rules and the bundled dataset."""

import csv
import importlib
import importlib.util
import random
import shutil
import sys
from importlib import resources
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survcmp import datasets
from survcmp.cli import main
from survcmp.datasets import ingest_csv, load_tongue, tongue_path
from survcmp.survival import HORIZON_POLICIES

from oracles import reference_ingest_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    # newline="" keeps every line end as written
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _assert_same_samples(got, want):
    for a, b in zip(got, want):
        assert a.times.dtype == b.times.dtype and a.times.tobytes() == b.times.tobytes()
        assert a.events.dtype == b.events.dtype and np.array_equal(a.events, b.events)
        assert a.k == b.k


class TestBundledData:
    def test_path_exists_and_has_header(self):
        path = tongue_path()
        text = path.read_text()
        first = text.splitlines()[0]
        assert {"time", "delta", "type"} <= set(first.split(","))

    def test_group_sizes_and_window(self):
        s1, s2 = load_tongue()
        assert (s1.n, s2.n) == (52, 28)
        assert s1.k == s2.k == 200.0

    def test_censor_policy_counts(self):
        s1, s2 = load_tongue(beyond_horizon="censor")
        assert int(s1.events.sum()) == 31
        assert int(s2.events.sum()) == 22
        assert int((s1.times == 200.0).sum()) == 3
        assert int((s2.times == 200.0).sum()) == 1
        assert not s1.events[s1.times == 200.0].any()
        assert not s2.events[s2.times == 200.0].any()

    def test_event_policy_counts(self):
        s1, s2 = load_tongue(beyond_horizon="event")
        assert int(s1.events.sum()) == 34
        assert int(s2.events.sum()) == 23
        assert s1.events[s1.times == 200.0].all()
        assert s2.events[s2.times == 200.0].all()

    def test_policies_only_differ_at_the_window_end(self):
        c1, _ = load_tongue(beyond_horizon="censor")
        e1, _ = load_tongue(beyond_horizon="event")
        np.testing.assert_array_equal(c1.times, e1.times)
        inside = c1.times < 200.0
        np.testing.assert_array_equal(c1.events[inside], e1.events[inside])

    def test_copy_under_another_name_reads_its_own_data(self, tmp_path, capsys):
        # a second copy of the package, imported under a name of its own (as
        # tools/ab_inprocess.py loads two checkouts side by side)
        src = tmp_path / "copy"
        shutil.copytree(Path(datasets.__file__).parent, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = importlib.util.spec_from_file_location(
            "survcmp_copy", src / "__init__.py", submodule_search_locations=[str(src)])
        package = importlib.util.module_from_spec(spec)
        sys.modules["survcmp_copy"] = package
        try:
            spec.loader.exec_module(package)
            cli = importlib.import_module("survcmp_copy.cli")
            path = importlib.import_module("survcmp_copy.datasets").tongue_path()
            assert Path(str(path)) == src / "data" / "tongue.csv"
            # analyze without --input: the copy's bundled data, the same report
            argv = ["analyze", "--method", "asymptotic", "--json"]
            assert cli.main(argv) == 0
            report = capsys.readouterr().out
        finally:
            for name in [name for name in sys.modules if name.split(".")[0] == "survcmp_copy"]:
                del sys.modules[name]
        assert main(argv) == 0
        assert capsys.readouterr().out == report

    def test_shorter_window_rewrites_more_rows(self):
        s1, s2 = load_tongue(k=100.0)
        assert s1.k == 100.0
        assert s1.times.max() == 100.0
        assert int((s1.times == 100.0).sum()) > 3
        assert (s2.times <= 100.0).all()


class TestIngestCsv:
    BASIC = "time,delta,type\n5,1,1\n7,0,1\n3,1,2\n9,1,2\n"

    def test_basic_split(self, tmp_path):
        s1, s2 = ingest_csv(_write(tmp_path, self.BASIC), k=10.0)
        assert (s1.n, s2.n) == (2, 2)
        np.testing.assert_array_equal(s1.times, [5.0, 7.0])
        np.testing.assert_array_equal(s1.events, [True, False])
        np.testing.assert_array_equal(s2.times, [3.0, 9.0])

    def test_beyond_horizon_policies(self, tmp_path):
        text = "time,delta,type\n5,1,1\n12,1,1\n3,1,2\n15,0,2\n"
        path = _write(tmp_path, text)
        c1, c2 = ingest_csv(path, k=10.0, beyond_horizon="censor")
        assert c1.times[1] == 10.0 and not c1.events[1]
        assert c2.times[1] == 10.0 and not c2.events[1]
        e1, e2 = ingest_csv(path, k=10.0, beyond_horizon="event")
        assert e1.times[1] == 10.0 and e1.events[1]
        assert e2.times[1] == 10.0 and e2.events[1]
        with pytest.raises(ValueError, match="beyond_horizon"):
            ingest_csv(path, k=10.0, beyond_horizon="drop")

    def test_custom_columns_and_codes(self, tmp_path):
        text = "weeks,dead,arm\n5,yes,B\n7,no,B\n3,yes,A\n"
        path = _write(tmp_path, text)
        s1, s2 = ingest_csv(path, k=10.0, time_col="weeks", status_col="dead",
                            group_col="arm", event_value="yes", censored_value="no")
        # alphabetic labels sort A before B
        assert s1.n == 1 and s2.n == 2
        assert s1.times[0] == 3.0

    def test_numeric_labels_sort_numerically(self, tmp_path):
        text = "time,delta,type\n1,1,10\n2,1,10\n3,1,9\n"
        s1, s2 = ingest_csv(_write(tmp_path, text), k=10.0)
        assert s1.n == 1  # label 9 before label 10
        assert s2.n == 2

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "time,delta\n5,1\n")
        with pytest.raises(ValueError, match="missing column 'type'"):
            ingest_csv(path, k=10.0)

    def test_non_numeric_time(self, tmp_path):
        path = _write(tmp_path, "time,delta,type\n5,1,1\nabc,1,2\n")
        with pytest.raises(ValueError, match="row 3: non-numeric time"):
            ingest_csv(path, k=10.0)

    def test_nonpositive_time(self, tmp_path):
        path = _write(tmp_path, "time,delta,type\n0,1,1\n5,1,2\n")
        with pytest.raises(ValueError, match="row 2: time must be positive"):
            ingest_csv(path, k=10.0)

    def test_invalid_status(self, tmp_path):
        path = _write(tmp_path, "time,delta,type\n5,2,1\n3,1,2\n")
        with pytest.raises(ValueError, match="row 2: invalid status code '2'"):
            ingest_csv(path, k=10.0)

    def test_group_count_enforced(self, tmp_path):
        one = _write(tmp_path, "time,delta,type\n5,1,1\n", name="one.csv")
        with pytest.raises(ValueError, match="expected exactly 2 groups, found 1"):
            ingest_csv(one, k=10.0)
        three = _write(tmp_path, "time,delta,type\n5,1,1\n5,1,2\n5,1,3\n", name="three.csv")
        with pytest.raises(ValueError, match="expected exactly 2 groups, found 3"):
            ingest_csv(three, k=10.0)

    def test_error_rows_are_file_lines(self, tmp_path):
        # blank lines count, whatever the line ends
        for end in ("\n", "\r\n", "\r"):
            text = end.join(["type,time,delta", "", "1,2.0,1", "1,abc,0", "2,3,1", ""])
            path = _write(tmp_path, text)
            with pytest.raises(ValueError, match="^row 4: non-numeric time 'abc'$"):
                ingest_csv(path, k=10.0)
        # a quoted field spanning lines is named by the line it ends on
        path = _write(tmp_path, 'time,delta,type\n5,1,"a\nb"\n\n7,2,"a\nb"\n')
        with pytest.raises(ValueError, match="^row 6: invalid status code '2'$"):
            ingest_csv(path, k=10.0)

    def test_group_order_does_not_depend_on_row_order(self, tmp_path):
        # a label float() reads as NaN sorts as text, after every number
        rows = ["1,1,nan", "2,1,1", "3,0,1"]
        for order in (rows, rows[::-1], rows[1:] + rows[:1]):
            path = _write(tmp_path, "time,delta,type\n" + "\n".join(order) + "\n")
            s1, s2 = ingest_csv(path, k=10.0)
            assert (s1.n, s2.n) == (2, 1)
            assert s2.times.tolist() == [1.0]

    def test_equal_status_codes_rejected(self, tmp_path):
        # before the file is read: a missing file gives the same error, and
        # the row-by-row oracle agrees
        for path in (_write(tmp_path, self.BASIC), tmp_path / "absent.csv"):
            for read in (ingest_csv, reference_ingest_csv):
                with pytest.raises(ValueError,
                                   match="^event_value and censored_value must differ$"):
                    read(path, k=10.0, event_value="1", censored_value="1")

    def test_invalid_horizon(self, tmp_path):
        path = _write(tmp_path, self.BASIC)
        for bad in (0.0, -5.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="invalid horizon"):
                ingest_csv(path, k=bad)

    def test_policy_names_exported(self):
        assert HORIZON_POLICIES == ("censor", "event")


class TestAgainstRowByRow:
    """The package's readers against the row-by-row reference reader."""

    MIXED = ("time,delta,arm,site\n"
             " 5, 1 ,beta ,x\n"
             "7,0, alpha,y\n"
             "5,0,beta,x\n"
             "\n"
             "12.5,1,alpha,z\n"
             "3.25, 1,alpha ,x\n"
             "40,0,beta,y,extra\n"
             "7,1,beta\n"
             "1e1,1,alpha,x\n")

    @pytest.mark.parametrize("policy", HORIZON_POLICIES)
    @pytest.mark.parametrize("k", [6.0, 10.0, 50.0])
    def test_samples_identical(self, tmp_path, policy, k):
        path = _write(tmp_path, self.MIXED)
        got = ingest_csv(path, k=k, group_col="arm", beyond_horizon=policy)
        want = reference_ingest_csv(path, k=k, group_col="arm", beyond_horizon=policy)
        _assert_same_samples(got, want)

    def test_bundled_data_identical(self):
        for policy in HORIZON_POLICIES:
            with resources.as_file(tongue_path()) as path:
                got = ingest_csv(path, k=100.0, beyond_horizon=policy)
                want = reference_ingest_csv(path, k=100.0, beyond_horizon=policy)
            _assert_same_samples(got, want)

    @pytest.mark.parametrize("body", [
        "5,1,1\n7,2,1\nabc,1,2\n",     # bad status comes first
        "5,1,1\nabc,1,2\n7,2,1\n",     # non-numeric time comes first
        "5,1,1\n-1,7,2\n",             # bad time and bad status in one row
        "5,1,1\ninf,1,2\n",
        "5,1,1\nnan,1,2\n",
        "5,1,1\n6,1,2\n7,0,3\n",
        "5,1,1\n5,1,1\n",
        " 5 ,1,1\n 0 ,1,2\n",
    ])
    def test_errors_identical(self, tmp_path, body):
        path = _write(tmp_path, "time,delta,type\n" + body)
        with pytest.raises(ValueError) as want:
            reference_ingest_csv(path, k=10.0)
        with pytest.raises(ValueError) as got:
            ingest_csv(path, k=10.0)
        assert str(got.value) == str(want.value)

    def test_undecodable_byte_error_identical(self, tmp_path):
        # the byte lies past the text layer's first chunk, whose offsets
        # the message reports
        path = tmp_path / "data.csv"
        path.write_bytes(b"time,delta,type\n" + b"5,1,1\n6,0,2\n" * 2000 + b"7,1,\xff\n")
        with pytest.raises(UnicodeDecodeError) as want:
            reference_ingest_csv(path, k=10.0)
        with pytest.raises(UnicodeDecodeError) as got:
            ingest_csv(path, k=10.0)
        assert str(got.value) == str(want.value)

    def test_bad_row_before_undecodable_byte(self, tmp_path):
        # the first bad row is reported; the reader stops before the byte
        path = tmp_path / "data.csv"
        path.write_bytes(b"time,delta,type\n5,1,1\n6,9,2\n" + b"5,1,1\n6,0,2\n" * 2000
                         + b"7,1,\xff\n")
        want = _outcome(reference_ingest_csv, path, 10.0, "censor")
        assert want == (ValueError, "row 3: invalid status code '9'")
        assert _outcome(ingest_csv, path, 10.0, "censor") == want

    def test_short_row_rejected(self, tmp_path):
        path = _write(tmp_path, "time,delta,type\n5,1,1\n6,1\n7,1,2\n")
        with pytest.raises(ValueError, match="row 3: 2 fields, too few for column 'type'"):
            ingest_csv(path, k=10.0)
        path = _write(tmp_path, "time,delta,type\n5,1,1\n7,1,2\n6\n", name="b.csv")
        with pytest.raises(ValueError, match="row 4: 1 fields, too few"):
            ingest_csv(path, k=10.0)

    @staticmethod
    def _many_rows(n):
        # rows of both groups, with ties, whitespace and blank lines
        return "".join(f"{1 + (i * 7) % 50}, {i % 3 % 2} ,{1 + i % 2}\n" + "\n" * (i % 97 == 0)
                       for i in range(n))

    def test_samples_identical_across_blocks(self, tmp_path):
        path = _write(tmp_path, "time,delta,type\n" + self._many_rows(700))
        _assert_same_samples(ingest_csv(path, k=30.0), reference_ingest_csv(path, k=30.0))

    @pytest.mark.parametrize("at", [0, 255, 256, 600])
    def test_errors_in_later_blocks(self, tmp_path, at):
        rows = [f"{1 + i % 50},1,{1 + i % 2}\n" for i in range(700)]
        short = rows.copy()
        short[at] = "6,1\n"
        path = _write(tmp_path, "time,delta,type\n" + "".join(short))
        with pytest.raises(ValueError, match=f"row {at + 2}: 2 fields, too few for column 'type'"):
            ingest_csv(path, k=10.0)
        rows[at] = "6,9,1\n"
        path = _write(tmp_path, "time,delta,type\n" + "".join(rows), name="b.csv")
        with pytest.raises(ValueError) as want:
            reference_ingest_csv(path, k=10.0)
        with pytest.raises(ValueError) as got:
            ingest_csv(path, k=10.0)
        assert str(got.value) == str(want.value) == f"row {at + 2}: invalid status code '9'"


def _bench_shaped_rows(n):
    """(label, time, event) rows like the benchmark's generated input."""
    gen = np.random.default_rng(5)
    times = np.maximum(np.ceil(gen.exponential(1.2, n) * 1000), 1) / 1000
    return [(1 + i % 2, repr(float(t)), int(gen.random() < 0.7)) for i, t in enumerate(times)]


class TestFastPath:
    """Inputs numpy's C reader must take without the csv.reader path."""

    @pytest.fixture(autouse=True)
    def no_fallback(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the csv.reader path read the file")
        monkeypatch.setattr(datasets, "_read_rows", fail)

    def test_bundled_data(self):
        for policy in HORIZON_POLICIES:
            s1, s2 = load_tongue(beyond_horizon=policy)
            assert (s1.n, s2.n) == (52, 28)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_csv_writer_line_ends(self, tmp_path, end):
        # csv.writer ends lines with \r\n unless told otherwise
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator=end)
            out.writerow(["type", "time", "delta"])
            out.writerows(_bench_shaped_rows(400))
        _assert_same_samples(ingest_csv(path, k=1.6), reference_ingest_csv(path, k=1.6))

    def test_blank_lines_and_padded_fields(self, tmp_path):
        text = ("time,delta,type\n\n 5 , 1 ,1\n\n\n7\t,0, 2 \n"
                " 3,\t1,  1\n9 ,0 ,2\t\n\n")
        path = _write(tmp_path, text)
        _assert_same_samples(ingest_csv(path, k=8.0), reference_ingest_csv(path, k=8.0))

    def test_interleaved_groups_keep_file_order(self, tmp_path):
        # unsorted times in irregular runs of each group, one group spelled
        # two ways: every group's rows stay in file order
        gen = np.random.default_rng(2020)
        labels = gen.choice(["a", " a", "b"], size=500, p=[0.3, 0.2, 0.5])
        times = np.round(gen.uniform(0.1, 9.9, 500), 3)
        events = gen.random(500) < 0.6
        path = _write(tmp_path, "type,time,delta\n" + "".join(
            f"{g},{t!r},{int(e)}\n" for g, t, e in zip(labels, times.tolist(), events)))
        got = ingest_csv(path, k=10.0)
        _assert_same_samples(got, reference_ingest_csv(path, k=10.0))
        first = np.char.strip(labels.astype(str)) == "a"
        for sample, rows in zip(got, (first, ~first)):
            assert sample.times.tobytes() == times[rows].tobytes()
            assert np.array_equal(sample.events, events[rows])

    def test_long_labels_whole(self, tmp_path):
        # no fixed string width truncates a label
        long = "arm-" + "\u00e9" * 5000
        path = _write(tmp_path, f"time,delta,type\n5,1,{long}\n7,0,{long}x\n6,1,{long}\n")
        got = ingest_csv(path, k=10.0)
        _assert_same_samples(got, reference_ingest_csv(path, k=10.0))
        assert (got[0].n, got[1].n) == (2, 1)


# Spellings for the differential test.  Every time in TIMES and ODD_TIMES
# is one float() reads as positive and finite, the odd ones in a way
# numpy's reader does not; BAD_TIMES are not.
TIMES = ["3", "7", "12", "2.5", "0.125", "41.75", "1e1", "3.", "+.5", "1E+1", "0.5e1",
         "7\xa0", "\t4"]
ODD_TIMES = ["1_0", "١٢", "٣.٥"]
BAD_TIMES = ["inf", "-inf", "nan", "Infinity", "1e400", "1e-400", "0x1", "0", "-1", "",
             "abc", "1 2", "1.5e", "5\x00"]
BAD_STATUS = ["2", "", "yes", "1.0", "0\x00"]
PLAIN_LABELS = ["1", "2", "10", "9", "-0", "0", "1e5", "inf", "nan", "NaN", "a", "B",
                "a b", "β", "١", "#", "x" * 300, "é" * 60, "\x00"]
QUOTED_LABELS = ["a,b", 'say "hi"', "two\nlines", "cr\rlf", ""]
PADS = ["", "", "", " ", "  ", "\t", "\xa0"]
FAULTS = [None] * 4 + ["time", "status", "short", "space_line", "third_group", "one_group",
                       "header"]


@st.composite
def csv_files(draw):
    """Text of a two-group CSV, written with one kind of line end, and
    with at most one fault.  The file's shape comes from hypothesis, its
    rows from a generator seeded by it, which keeps the draws few."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting, odd = draw(st.booleans()), draw(st.booleans())
    header = draw(st.permutations(["type", "time", "delta", "note"]))
    labels = draw(st.lists(st.sampled_from(PLAIN_LABELS + QUOTED_LABELS * quoting),
                           min_size=2, max_size=2, unique=True))
    n = draw(st.integers(1, 25))
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, n - 1))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))

    def field(value):
        if quoting and (any(c in value for c in ',"\n\r') or rnd.random() < 0.5):
            return '"' + value.replace('"', '""') + '"'
        return rnd.choice(PADS) + value + rnd.choice(PADS)

    lines = [",".join(header)]
    if fault == "header":
        lines[0] = lines[0].replace("time", "time ")
    for i in range(n):
        spellings = ODD_TIMES if odd and rnd.random() < 0.1 else TIMES
        row = {"time": rnd.choice(spellings), "delta": rnd.choice("10"),
               "type": labels[0] if fault == "one_group" else rnd.choice(labels),
               "note": rnd.choice(["", "x", "1", "note"])}
        if i == at and fault == "time":
            row["time"] = rnd.choice(BAD_TIMES)
        if i == at and fault == "status":
            row["delta"] = rnd.choice(BAD_STATUS)
        if i == at and fault == "third_group":
            row["type"] = "third"
        fields = [field(row[name]) for name in header]
        if i == at and fault == "short":
            fields = fields[:rnd.randint(1, 3)]
        fields += rnd.choice([[], [], [], ["extra"], ["", "more"]])
        lines.append(",".join(fields))
        lines += rnd.choice([[], [], [], [""], ["", ""]])
        if i == at and fault == "space_line":
            lines.append(rnd.choice([" ", "\t", "  "]))
    text = end.join(lines) + rnd.choice([end, ""])
    return text, draw(st.sampled_from([10.0, 50.0])), draw(st.sampled_from(HORIZON_POLICIES))


def _outcome(read, path, k, policy):
    try:
        return read(path, k=k, beyond_horizon=policy)
    except Exception as exc:  # the type and the message must agree too
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.csv"


def _assert_same_outcome(path, case):
    text, k, policy = case
    with open(path, "w", newline="") as fh:
        fh.write(text)
    got = _outcome(ingest_csv, path, k, policy)
    want = _outcome(reference_ingest_csv, path, k, policy)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert not isinstance(got[0], type), got
        _assert_same_samples(got, want)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=csv_files())
def test_differential_against_row_by_row(scratch_file, case):
    _assert_same_outcome(scratch_file, case)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=csv_files())
def test_differential_fallback_against_row_by_row(scratch_file, case):
    # the csv.reader path alone, on the files the fast path reads too
    with patch.object(datasets, "_read_fast", return_value=None):
        _assert_same_outcome(scratch_file, case)


@pytest.mark.parametrize("text", [
    "time,delta,type\n5,1,1\n6,0," + "x" * 150 + "\n7,1,2\n",
    "time,delta," + "x" * 150 + "\n5,1,1\n",  # before the missing column
    "time,delta,type\n5,1,1\n6,9,2\n7,0," + "x" * 150 + "\n",  # after a bad status
])
def test_field_limit_errors_identical(tmp_path, text):
    # a line longer than csv.reader's field limit goes to that reader, which
    # stops at the first bad row or long field as the row-by-row reader does
    path = _write(tmp_path, text)
    old = csv.field_size_limit(100)
    try:
        want = _outcome(reference_ingest_csv, path, 10.0, "censor")
        got = _outcome(ingest_csv, path, 10.0, "censor")
    finally:
        csv.field_size_limit(old)
    assert want[0] in (csv.Error, ValueError)
    assert got == want
