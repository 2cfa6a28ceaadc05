"""CSV ingestion rules and the bundled dataset."""

from importlib import resources

import numpy as np
import pytest

from survcmp.datasets import HORIZON_POLICIES, ingest_csv, load_tongue, tongue_path

from oracles import reference_ingest_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


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

    def test_invalid_horizon(self, tmp_path):
        path = _write(tmp_path, self.BASIC)
        for bad in (0.0, -5.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="invalid horizon"):
                ingest_csv(path, k=bad)

    def test_policy_names_exported(self):
        assert HORIZON_POLICIES == ("censor", "event")


class TestAgainstRowByRow:
    """The column-wise reader against the row-by-row reference reader."""

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
        for a, b in zip(got, want):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.times.dtype == b.times.dtype
            assert np.array_equal(a.events, b.events) and a.events.dtype == b.events.dtype
            assert a.k == b.k

    def test_bundled_data_identical(self):
        for policy in HORIZON_POLICIES:
            with resources.as_file(tongue_path()) as path:
                got = ingest_csv(path, k=100.0, beyond_horizon=policy)
                want = reference_ingest_csv(path, k=100.0, beyond_horizon=policy)
            for a, b in zip(got, want):
                assert a.times.tobytes() == b.times.tobytes()
                assert np.array_equal(a.events, b.events)

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

    def test_short_row_rejected(self, tmp_path):
        path = _write(tmp_path, "time,delta,type\n5,1,1\n6,1\n7,1,2\n")
        with pytest.raises(ValueError, match="row 3: 2 fields, too few for column 'type'"):
            ingest_csv(path, k=10.0)
        path = _write(tmp_path, "time,delta,type\n5,1,1\n7,1,2\n6\n", name="b.csv")
        with pytest.raises(ValueError, match="row 4: 1 fields, too few"):
            ingest_csv(path, k=10.0)

    @staticmethod
    def _many_rows(n):
        # rows of both groups, with ties, whitespace and blank lines, over
        # several of the reader's blocks
        return "".join(f"{1 + (i * 7) % 50}, {i % 3 % 2} ,{1 + i % 2}\n" + "\n" * (i % 97 == 0)
                       for i in range(n))

    def test_samples_identical_across_blocks(self, tmp_path):
        path = _write(tmp_path, "time,delta,type\n" + self._many_rows(700))
        got = ingest_csv(path, k=30.0)
        want = reference_ingest_csv(path, k=30.0)
        for a, b in zip(got, want):
            assert a.times.tobytes() == b.times.tobytes()
            assert np.array_equal(a.events, b.events)

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
