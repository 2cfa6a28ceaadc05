"""Command-line behavior: exit codes, output formats, seed handling."""

import argparse
import csv
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from survcmp import cli, inference, resampling, simulate
from survcmp.cli import main
from survcmp.datasets import load_tongue


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SURVCMP_SEED", raising=False)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestAnalyze:
    def test_default_dataset_asymptotic(self, capsys):
        rc, out, _ = _run(capsys, ["analyze", "--method", "asymptotic"])
        assert rc == 0
        assert "effect 0.6148" in out
        assert "win ratio 1.5963" in out
        assert "asymptotic" in out

    def test_json_schema(self, capsys):
        rc, out, _ = _run(capsys, ["analyze", "--json", "--b", "99"])
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {"n1", "n2", "k", "p_hat", "w_hat", "sigma_hat",
                                "methods", "seed"}
        assert payload["n1"] == 52 and payload["n2"] == 28
        assert payload["k"] == 200.0
        assert len(payload["methods"]) == 3
        for entry in payload["methods"]:
            assert set(entry) == {"name", "ci", "statistic", "p_value", "b", "dropped"}
        names = [entry["name"] for entry in payload["methods"]]
        assert names == ["asymptotic", "bootstrap", "permutation"]
        assert payload["methods"][0]["b"] == 0
        assert payload["methods"][1]["b"] == 99

    def test_json_byte_identical_across_workers(self, capsys, monkeypatch):
        monkeypatch.setattr(resampling, "POOL_CELLS", 0)  # workers fork even for small sets
        argv = ["analyze", "--json", "--b", "600", "--seed", "3"]
        _, out1, _ = _run(capsys, argv + ["--workers", "1"])
        _, out4, _ = _run(capsys, argv + ["--workers", "4"])
        assert out1 == out4

    def test_json_rerun_identical(self, capsys):
        argv = ["analyze", "--json", "--b", "99", "--seed", "5"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_target_both_names_rows(self, capsys):
        rc, out, _ = _run(capsys, ["analyze", "--json", "--method", "asymptotic",
                                   "--target", "both"])
        assert rc == 0
        names = [e["name"] for e in json.loads(out)["methods"]]
        assert names == ["asymptotic:p", "asymptotic:w"]

    def test_target_both_output_frozen(self, capsys):
        # recorded with the observed statistic as the engine's identity row and
        # the standard library's normal quantile and tail; a change that keeps
        # the arithmetic must not move a byte
        golden = Path(__file__).parent / "golden" / "analyze_all_both_seed1.json"
        rc, out, _ = _run(capsys, ["analyze", "--method", "all", "--target", "both",
                                   "--json", "--seed", "1"])
        assert rc == 0
        assert out == golden.read_text()

    def test_target_both_builds_one_replicate_set_per_method(self, capsys, monkeypatch):
        schemes = []
        original = inference.replicate_set

        def counting(z, plan):
            schemes.append(plan.scheme)
            return original(z, plan)

        monkeypatch.setattr(inference, "replicate_set", counting)
        rc, _, _ = _run(capsys, ["analyze", "--method", "all", "--target", "both",
                                 "--b", "99", "--json"])
        assert rc == 0
        assert sorted(schemes) == ["bootstrap", "permutation"]

    def test_one_sided_w_interval_open_above(self, capsys):
        rc, out, _ = _run(capsys, ["analyze", "--method", "asymptotic", "--target", "w",
                                   "--alternative", "greater", "--json"])
        assert rc == 0
        entry = json.loads(out)["methods"][0]
        assert entry["ci"][1] is None  # unbounded above
        rc, out, _ = _run(capsys, ["analyze", "--method", "asymptotic", "--target", "w",
                                   "--alternative", "greater"])
        assert "inf" in out

    def test_seed_env_and_flag_precedence(self, capsys, monkeypatch):
        monkeypatch.setenv("SURVCMP_SEED", "9")
        _, out_env, _ = _run(capsys, ["analyze", "--json", "--method", "asymptotic"])
        assert json.loads(out_env)["seed"] == 9
        _, out_flag, _ = _run(capsys, ["analyze", "--json", "--method", "asymptotic",
                                       "--seed", "4"])
        assert json.loads(out_flag)["seed"] == 4

    def test_bad_env_seed_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("SURVCMP_SEED", "abc")
        rc, _, err = _run(capsys, ["analyze", "--method", "asymptotic"])
        assert rc == 1
        assert "SURVCMP_SEED must be an integer" in err

    @pytest.mark.parametrize("method", ["asymptotic", "bootstrap", "permutation", "all"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_1(self, capsys, method, seed):
        # checked once for every method, the asymptotic one included
        rc, out, err = _run(capsys, ["analyze", "--method", method, "--seed", seed])
        assert (rc, out, err) == (1, "", "survcmp: seed must fit in 64 unsigned bits\n")

    def test_env_seed_range_checked(self, capsys, monkeypatch):
        argv = ["analyze", "--method", "asymptotic", "--json"]
        monkeypatch.setenv("SURVCMP_SEED", "-5")
        rc, out, err = _run(capsys, argv)
        assert (rc, out, err) == (1, "", "survcmp: seed must fit in 64 unsigned bits\n")
        monkeypatch.setenv("SURVCMP_SEED", str(2**64 - 1))
        rc, out, _ = _run(capsys, argv)
        assert rc == 0 and json.loads(out)["seed"] == 2**64 - 1

    def test_capped_quantile_warns(self, capsys):
        # B = 9 asks for order statistic ceil(0.95 * 10) = 10 of 9
        argv = ["analyze", "--method", "permutation"]
        rc, _, err = _run(capsys, argv + ["--b", "9"])
        assert rc == 0
        assert err == ("survcmp: warning: permutation quantile rank 10 capped at b_eff 9 "
                       "(B 9, alpha 0.05); the interval has no nominal guarantee\n")
        rc, _, err = _run(capsys, argv + ["--b", "99"])
        assert (rc, err) == (0, "")
        # one result per method, whatever the targets: each capped
        # resampling method warns once, the asymptotic method never
        rc, _, err = _run(capsys, ["analyze", "--method", "all", "--target", "both",
                                   "--b", "9"])
        assert rc == 0
        assert err == "".join(
            f"survcmp: warning: {method} quantile rank 10 capped at b_eff 9 "
            "(B 9, alpha 0.05); the interval has no nominal guarantee\n"
            for method in ("bootstrap", "permutation"))

    def test_table1_reads_no_seed(self, capsys, monkeypatch):
        # the table draws nothing, so a malformed SURVCMP_SEED is no error
        # there, while a coverage cell still rejects it
        argv = ["simulate", "--table1", "--setup", "2", "--censoring", "strong"]
        _, want, _ = _run(capsys, argv)
        monkeypatch.setenv("SURVCMP_SEED", "x")
        rc, out, _ = _run(capsys, argv)
        assert (rc, out) == (0, want)
        rc, _, err = _run(capsys, ["simulate", "--setup", "3", "--censoring", "none",
                                   "--n1", "5", "--n2", "5", "--reps", "1", "--b", "9"])
        assert rc == 1
        assert "SURVCMP_SEED must be an integer" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        rc, out, _ = _run(capsys, ["analyze", "--method", "asymptotic",
                                   "--out", str(target)])
        assert rc == 0
        assert out == ""
        assert "effect 0.6148" in target.read_text()

    def test_out_in_missing_directory_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        rc, out, err = _run(capsys, ["analyze", "--method", "asymptotic",
                                     "--out", str(target)])
        assert rc == 1 and out == ""
        assert err == f"survcmp: [Errno 2] No such file or directory: '{target}'\n"

    def test_failed_analysis_leaves_existing_out_unchanged(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("earlier report\n")
        rc, out, err = _run(capsys, ["analyze", "--input", str(tmp_path / "no.csv"),
                                     "--k", "10", "--out", str(target)])
        assert rc == 1 and out == "" and err.startswith("survcmp:")
        assert target.read_text() == "earlier report\n"

    def test_dump_replicates(self, capsys, tmp_path):
        target = tmp_path / "reps.txt"
        rc, _, _ = _run(capsys, ["analyze", "--method", "permutation", "--b", "99",
                                 "--seed", "1", "--dump-replicates", str(target)])
        assert rc == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 99
        values = [float(x) for x in lines]
        assert all(v == v for v in values)

    def test_dump_replicates_needs_resampling_method(self, capsys, tmp_path):
        rc, _, err = _run(capsys, ["analyze", "--method", "all",
                                   "--dump-replicates", str(tmp_path / "x.txt")])
        assert rc == 1
        assert "--dump-replicates needs --method bootstrap or permutation" in err

    @pytest.mark.parametrize("method, where, err", [
        ("all", "x.txt", "--dump-replicates needs --method bootstrap or permutation"),
        ("bootstrap", "missing/x.txt", "[Errno 2] No such file or directory: '{}'"),
    ], ids=["method rule", "bad path"])
    def test_dump_replicates_checked_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                     method, where, err):
        def never(*args, **kwargs):
            raise AssertionError("work began before --dump-replicates was checked")

        monkeypatch.setattr(cli, "ingest_csv", never)
        monkeypatch.setattr(inference, "replicate_set", never)
        target = tmp_path / where
        rc, out, got = _run(capsys, ["analyze", "--method", method,
                                     "--dump-replicates", str(target)])
        assert (rc, out, got) == (1, "", f"survcmp: {err.format(target)}\n")

    def test_custom_input_requires_k(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        rows = "".join(f"{t},1,{g}\n" for t, g in
                       [(2, 1), (4, 1), (6, 1), (8, 1), (1, 2), (3, 2), (5, 2), (7, 2)])
        path.write_text("time,delta,type\n" + rows)
        rc, _, err = _run(capsys, ["analyze", "--input", str(path)])
        assert rc == 1
        assert "--k is required with --input" in err
        rc, out, _ = _run(capsys, ["analyze", "--input", str(path), "--k", "10",
                                   "--method", "asymptotic", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["n1"] == 4 and payload["n2"] == 4 and payload["k"] == 10.0

    def test_field_limit_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,delta,type\n5,1,1\n6,0," + "x" * 150 + "\n")
        old = csv.field_size_limit(100)
        try:
            rc, out, err = _run(capsys, ["analyze", "--input", str(path), "--k", "10"])
        finally:
            csv.field_size_limit(old)
        assert rc == 1 and out == ""
        assert err == "survcmp: field larger than field limit (100)\n"

    def test_equal_status_codes_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--event-value", "1", "--censored-value", "1"])
        assert exc.value.code == 2
        assert "--event-value and --censored-value must differ" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["asymptotic", "bootstrap", "permutation", "all"])
    @pytest.mark.parametrize("flags, err", [
        (["--b", "0"], "need at least one replicate"),
        (["--workers", "0"], "workers must be positive"),
        (["--b", "-1", "--workers", "0"], "need at least one replicate"),
    ])
    def test_bad_replicate_or_worker_count_exits_1(self, capsys, method, flags, err):
        # checked for every method, the asymptotic one included
        rc, out, got = _run(capsys, ["analyze", "--method", method] + flags)
        assert rc == 1 and out == ""
        assert got == f"survcmp: {err}\n"

    @pytest.mark.parametrize("method", ["asymptotic", "bootstrap", "permutation", "all"])
    def test_bad_alpha_exits_1_before_replicates(self, capsys, monkeypatch, method):
        # alpha / 2 = 0.75 once passed the normal quantile's own check
        def no_replicates(z, plan):
            raise AssertionError("replicates drawn before alpha was checked")

        monkeypatch.setattr(inference, "replicate_set", no_replicates)
        rc, out, err = _run(capsys, ["analyze", "--method", method, "--alpha", "1.5",
                                     "--b", "200000"])
        assert (rc, out, err) == (1, "", "survcmp: alpha must be in (0, 1)\n")

    def test_missing_input_file(self, capsys, tmp_path):
        rc, _, err = _run(capsys, ["analyze", "--input", str(tmp_path / "no.csv"),
                                   "--k", "10"])
        assert rc == 1
        assert "survcmp:" in err

    def test_parser_built_once_and_reused(self, capsys):
        cli.build_parser.cache_clear()
        first = ["analyze", "--json", "--b", "99", "--seed", "4"]
        rc, out1, _ = _run(capsys, first)
        assert rc == 0
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--method", "jackknife"])
        assert exc.value.code == 2
        capsys.readouterr()
        # options the first call leaves at their defaults are set here
        rc, other, _ = _run(capsys, ["analyze", "--json", "--method", "bootstrap",
                                     "--target", "both", "--alternative", "greater",
                                     "--alpha", "0.1", "--b", "49", "--seed", "9"])
        assert rc == 0 and other != out1
        rc, out2, _ = _run(capsys, first)
        assert rc == 0 and out2 == out1
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--method", "jackknife"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSimulate:
    CELL = ["simulate", "--setup", "3", "--censoring", "none", "--n1", "10",
            "--n2", "10", "--reps", "20", "--b", "49", "--seed", "2"]

    def test_single_cell_text(self, capsys):
        rc, out, _ = _run(capsys, self.CELL)
        assert rc == 0
        assert "asymptotic" in out and "permutation" in out
        assert out.count("\n") >= 2

    def test_single_cell_tsv_and_determinism(self, capsys):
        rc, out1, _ = _run(capsys, self.CELL + ["--tsv"])
        assert rc == 0
        lines = out1.strip().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split("\t")) == len(lines[1].split("\t"))
        _, out2, _ = _run(capsys, self.CELL + ["--tsv"])
        assert out1 == out2

    def test_out_in_missing_directory_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "cell.tsv"
        rc, out, err = _run(capsys, self.CELL + ["--tsv", "--out", str(target)])
        assert rc == 1 and out == ""
        assert err == f"survcmp: [Errno 2] No such file or directory: '{target}'\n"

    def test_bad_out_fails_before_the_cell_runs(self, capsys, tmp_path, monkeypatch):
        def never(config):
            raise AssertionError("the cell ran before the output path was checked")

        monkeypatch.setattr(simulate, "coverage_study", never)
        target = tmp_path / "missing" / "d" / "cell.tsv"
        rc, out, err = _run(capsys, self.CELL + ["--tsv", "--out", str(target)])
        assert rc == 1 and out == ""
        assert err == f"survcmp: [Errno 2] No such file or directory: '{target}'\n"

    def test_tsv_bytes_identical_across_workers(self, capsys):
        argv = ["simulate", "--setup", "3", "--censoring", "strong", "--n1", "15",
                "--n2", "15", "--reps", "40", "--b", "99", "--tsv"]
        _, out1, _ = _run(capsys, argv + ["--workers", "1"])
        _, out2, _ = _run(capsys, argv + ["--workers", "2"])
        assert out1 == out2
        assert multiprocessing.active_children() == []

    def test_cell_with_no_usable_replication_prints_a_row(self, capsys):
        # the one replication of this seed separates the groups completely
        argv = ["simulate", "--setup", "3", "--censoring", "strong", "--n1", "15",
                "--n2", "15", "--reps", "1", "--b", "99", "--seed", str((101 << 24) + 950)]
        row = ["3", "strong", "15", "15", "-", "-", "-", "0", "1"]
        rc, out, _ = _run(capsys, argv)
        assert rc == 0 and out.splitlines()[1].split() == row
        rc, out, _ = _run(capsys, argv + ["--tsv"])
        assert rc == 0 and out.splitlines()[1] == "\t".join(row)

    def test_missing_settings_rejected(self, capsys):
        rc, _, err = _run(capsys, ["simulate", "--setup", "3"])
        assert rc == 1
        assert "missing scenario settings" in err
        assert "censoring" in err and "n1" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("setup=3\ncensoring=none\nn1=10\nn2=10\nreps=10\nb=29\nseed=2\n")
        rc, from_cfg, _ = _run(capsys, ["simulate", "--config", str(cfg), "--tsv"])
        assert rc == 0
        rc, overridden, _ = _run(capsys, ["simulate", "--config", str(cfg),
                                          "--reps", "20", "--tsv"])
        assert rc == 0
        row_cfg = from_cfg.strip().splitlines()[1].split("\t")
        row_ovr = overridden.strip().splitlines()[1].split("\t")
        assert row_cfg != row_ovr

    def test_workers_flag_overrides_config_file(self, capsys, tmp_path, monkeypatch):
        seen = []
        original = simulate.coverage_study

        def recording(config):
            seen.append(config.workers)
            return original(config)

        monkeypatch.setattr(simulate, "coverage_study", recording)
        cfg = tmp_path / "cell.cfg"
        cfg.write_text("setup=3\ncensoring=none\nn1=10\nn2=10\nreps=2\nb=19\nworkers=4\n")
        for flags, want in (([], 4), (["--workers", "1"], 1), (["--workers", "2"], 2)):
            rc, _, _ = _run(capsys, ["simulate", "--config", str(cfg), "--tsv"] + flags)
            assert rc == 0
            assert seen == [want]
            seen.clear()

    def test_table1_filtered_by_setup(self, capsys):
        rc, out, _ = _run(capsys, ["simulate", "--table1", "--setup", "2"])
        assert rc == 0
        rows = [line.split() for line in out.strip().splitlines()[2:]]
        assert [r[0] for r in rows] == ["2", "2", "2"]
        assert [r[1] for r in rows] == ["strong", "moderate", "none"]
        strong = [float(rows[0][2]), float(rows[0][3])]
        assert abs(strong[0] - 12.16) <= 1.0
        assert abs(strong[1] - 10.44) <= 1.0

    def test_table1_level_filter(self, capsys):
        rc, out, _ = _run(capsys, ["simulate", "--table1", "--censoring", "none"])
        assert rc == 0
        rows = [line.split() for line in out.strip().splitlines()[2:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert all(r[1] == "none" for r in rows)

    def test_full_study_scaled_down(self, capsys, monkeypatch):
        seen = []
        original = simulate.coverage_study

        def recording(config):
            seen.append((config.workers, config.alpha))
            return original(config)

        monkeypatch.setattr(simulate, "coverage_study", recording)
        rc, out, err = _run(capsys, ["simulate", "--full-study", "--reps", "2",
                                     "--b", "19", "--workers", "2", "--alpha", "0.1", "--tsv"])
        assert rc == 0
        assert seen == [(2, 0.1)] * 90
        lines = out.strip().splitlines()
        assert len(lines) == 91
        progress = [l for l in err.strip().splitlines() if l.startswith("cell ")]
        assert len(progress) == 90
        assert progress[0].startswith("cell 1/90 done, ")
        assert progress[-1].startswith("cell 90/90 done, ")
        assert progress[-1].endswith(" s elapsed, ETA 0.0 s")

    @pytest.mark.parametrize("tsv", [False, True])
    def test_full_study_progress_gives_elapsed_and_eta(self, capsys, monkeypatch, tsv):
        # every cell takes 2.5 s of a fake clock; the ETA is the mean cell
        # time so far times the cells left, and the report is unchanged
        clock = [100.0]
        calibration = simulate.CensoringCalibration(0.5, 0.25, 30.0, 31.0)

        def study(config):
            clock[0] += 2.5
            return simulate.CoverageRow(config, 90.0, 91.5, 92.25, config.reps, 0, calibration)

        monkeypatch.setattr(simulate, "coverage_study", study)
        monkeypatch.setattr(cli, "monotonic", lambda: clock[0])
        rc, out, err = _run(capsys, ["simulate", "--full-study", "--reps", "2", "--b", "19",
                                     "--seed", "4"] + (["--tsv"] if tsv else []))
        assert rc == 0
        lines = err.splitlines()
        assert len(lines) == 90
        assert lines[0] == "cell 1/90 done, 2.5 s elapsed, ETA 222.5 s"
        assert lines[29] == "cell 30/90 done, 75.0 s elapsed, ETA 150.0 s"
        assert lines[-1] == "cell 90/90 done, 225.0 s elapsed, ETA 0.0 s"
        configs = simulate.full_study_configs(base_seed=4)
        rows = [study(dataclasses.replace(c, reps=2, b=19)) for c in configs]
        assert out == (simulate.coverage_tsv if tsv else simulate.coverage_text)(rows)

    @pytest.mark.parametrize("flags", [["--setup", "1"], ["--censoring", "none"],
                                       ["--n1", "5"], ["--n2", "5"],
                                       ["--setup", "2", "--n1", "5"], ["--config", "cell.cfg"]])
    def test_full_study_rejects_settings_it_fixes(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(simulate, "coverage_study", lambda config: pytest.fail("ran a cell"))
        rc, out, err = _run(capsys, ["simulate", "--full-study", "--reps", "1", "--b", "9"]
                            + flags)
        assert rc == 1 and out == ""
        names = ", ".join(flag[2:] for flag in flags[::2])
        assert err == (f"survcmp: settings the full study fixes: {names} "
                       "(drop them or --full-study)\n")

    @pytest.mark.parametrize("flags, err", [
        *((["--table1", *flag], f"the table ignores: {flag[0][2:]} (drop them or --table1)")
          for flag in (["--n1", "5"], ["--n2", "5"], ["--reps", "3"], ["--b", "9"],
                       ["--alpha", "0.5"], ["--seed", "0"], ["--workers", "2"],
                       ["--config", "cell.cfg"], ["--tsv"], ["--full-study"])),
        (["--table1", "--setup", "2", "--n1", "5", "--alpha", "0", "--tsv"],
         "the table ignores: n1, alpha, tsv (drop them or --table1)"),
        (CELL[1:] + ["--pre-censoring"],
         "only the table uses: pre-censoring (drop it or add --table1)"),
    ])
    def test_rejects_settings_the_command_ignores(self, capsys, monkeypatch, flags, err):
        monkeypatch.setattr(simulate, "coverage_study", lambda config: pytest.fail("ran a cell"))
        monkeypatch.setattr(simulate, "proportions_text",
                            lambda *args, **kwargs: pytest.fail("made the table"))
        rc, out, got = _run(capsys, ["simulate"] + flags)
        assert rc == 1 and out == ""
        assert got == f"survcmp: settings {err}\n"

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.tsv"
        rc, out, _ = _run(capsys, self.CELL + ["--tsv", "--out", str(target)])
        assert rc == 0
        assert out == ""
        assert len(target.read_text().strip().splitlines()) == 2

    def test_bad_setup_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--setup", "9", "--censoring", "none",
                  "--n1", "10", "--n2", "10"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSingleSource:
    """The parser keeps no copy of a choice list or default of the library."""

    @staticmethod
    def _action(command, flag):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return next(a for a in sub.choices[command]._actions if flag in a.option_strings)

    def test_choices_are_the_library_tables(self):
        assert self._action("simulate", "--setup").choices == tuple(simulate.SETUPS)
        assert (self._action("simulate", "--censoring").choices
                == tuple(simulate.CENSORING_LEVELS))
        assert self._action("analyze", "--alternative").choices == inference.ALTERNATIVES
        assert self._action("analyze", "--method").choices == inference.METHODS + ("all",)

    def test_settings_left_unset_take_the_library_defaults(self):
        for flag in ("--alpha", "--alternative", "--b", "--workers"):
            assert self._action("analyze", flag).default is None, flag
        for f in dataclasses.fields(simulate.ScenarioConfig):
            assert self._action("simulate", "--" + f.name).default is None, f.name
        for flag in ("--reps", "--b"):
            name = flag.removeprefix("--")
            assert (f"(default {getattr(simulate.ScenarioConfig, name)})"
                    in self._action("simulate", flag).help)

    def test_analyze_json_equals_the_library_with_its_defaults(self, capsys):
        rc, out, _ = _run(capsys, ["analyze", "--json"])
        assert rc == 0
        s1, s2 = load_tongue()
        rows = [(res.method, "p", res.ci, res) for res in inference.analyze(s1, s2)]
        assert out == cli._analysis_json(s1, s2, rows, 0)

    def test_simulate_cell_equals_the_library_with_its_defaults(self, capsys):
        # a small cell: no alpha, seed or workers flag
        rc, out, _ = _run(capsys, ["simulate", "--setup", "2", "--censoring", "strong",
                                   "--n1", "8", "--n2", "10", "--reps", "5", "--b", "19",
                                   "--tsv"])
        assert rc == 0
        config = simulate.ScenarioConfig(setup=2, censoring="strong", n1=8, n2=10, reps=5,
                                         b=19)
        assert out == simulate.coverage_tsv([simulate.coverage_study(config)])


# Blocks scipy before survcmp is imported (an import of it then raises
# ImportError), imports every module, runs the command given on the command
# line and checks that nothing replaced the block.
_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import survcmp, survcmp.cli
for module in pkgutil.iter_modules(survcmp.__path__):
    importlib.import_module("survcmp." + module.name)
rc = survcmp.cli.main(sys.argv[1:])
assert sys.modules["scipy"] is None
sys.exit(rc)
"""


@pytest.mark.parametrize("argv", [
    ["analyze", "--method", "all", "--target", "both", "--b", "199", "--json"],
    # setup 2's second group is lognormal
    ["simulate", "--setup", "2", "--censoring", "moderate", "--n1", "10", "--n2", "10",
     "--reps", "20", "--b", "49", "--tsv"],
])
def test_runs_without_scipy(capsys, argv):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    # _clean_env has removed SURVCMP_SEED, so both sides run with the same seed
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert run.stdout == out
