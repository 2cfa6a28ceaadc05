"""Command-line behavior: exit codes, output formats, seed handling."""

import json
from pathlib import Path

import pytest

from survcmp import cli, resampling
from survcmp.cli import main


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

    def test_json_byte_identical_across_workers(self, capsys):
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
        # recorded before the observed statistic and the replicate sets
        # were shared between targets; the sharing must not move a byte
        golden = Path(__file__).parent / "golden" / "analyze_all_both_seed1.json"
        rc, out, _ = _run(capsys, ["analyze", "--method", "all", "--target", "both",
                                   "--json", "--seed", "1"])
        assert rc == 0
        assert out == golden.read_text()

    def test_target_both_builds_one_replicate_set_per_method(self, capsys, monkeypatch):
        schemes = []
        original = resampling.replicate_set

        def counting(z, plan):
            schemes.append(plan.scheme)
            return original(z, plan)

        for module in (cli, resampling):
            monkeypatch.setattr(module, "replicate_set", counting)
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

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        rc, out, _ = _run(capsys, ["analyze", "--method", "asymptotic",
                                   "--out", str(target)])
        assert rc == 0
        assert out == ""
        assert "effect 0.6148" in target.read_text()

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

    def test_full_study_scaled_down(self, capsys):
        rc, out, err = _run(capsys, ["simulate", "--full-study", "--reps", "2",
                                     "--b", "19", "--tsv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 91
        progress = [l for l in err.strip().splitlines() if l.endswith("done")]
        assert len(progress) == 90
        assert progress[0] == "cell 1/90 done"
        assert progress[-1] == "cell 90/90 done"

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
