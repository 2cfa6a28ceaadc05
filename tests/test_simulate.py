"""Scenario laws, censoring calibration, and the coverage harness."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, special, stats

from survcmp import _engine
from survcmp.inference import DegenerateError
from survcmp.rng import stream
from survcmp.simulate import (
    CENSORING_BANDS,
    SETUPS,
    CensoringCalibration,
    CoverageRow,
    ScenarioConfig,
    calibrate_censoring,
    coverage_study,
    coverage_text,
    coverage_tsv,
    full_study_configs,
    parse_config_file,
    proportions_text,
    true_effect,
    truncation_proportions,
)

from survcmp.simulate import _generate

from oracles import (reference_calibrate_censoring, reference_generate,
                     reference_truncation_proportions)

N_BIG = 1_000_000


class TestDraws:
    def test_setup1_group1_exponential_mean(self):
        x = SETUPS[1][0].draw(stream(0, 50, 1), N_BIG)
        assert abs(x.mean() - 0.5) <= 0.002

    def test_setup1_group2_mixture_mean(self):
        x = SETUPS[1][1].draw(stream(0, 50, 2), N_BIG)
        expected = (1.0 / 1.27) / 3.0 + (2.0 / 3.0) * 0.4
        assert abs(x.mean() - expected) <= 0.002

    def test_setup2_group1_weibull_mean(self):
        x = SETUPS[2][0].draw(stream(0, 50, 3), N_BIG)
        expected = 1.65 * special.gamma(1.0 + 1.0 / 0.9)
        assert abs(x.mean() - expected) <= 0.01

    def test_setup2_group2_lognormal_median(self):
        x = SETUPS[2][1].draw(stream(0, 50, 4), N_BIG)
        assert abs(np.median(x) - 1.0) <= 0.01

    def test_setup3_groups_share_law_and_stream(self):
        a = SETUPS[3][0].draw(stream(0, 50, 5), 1000)
        b = SETUPS[3][1].draw(stream(0, 50, 5), 1000)
        assert_array_equal(a, b)

    def test_draws_match_distribution_functions(self):
        # empirical tail probabilities against the closed-form curves
        for setup in (1, 2, 3):
            for group in (1, 2):
                x = SETUPS[setup][group - 1].draw(stream(0, 51, 10 * setup + group), 200_000)
                sf = SETUPS[setup][group - 1].survival
                for t in (0.3, 0.8, 1.4):
                    assert abs((x > t).mean() - sf(t)) <= 0.005


class _ExpMix:
    """The 1/3-2/3 mixture of exponentials with means 1/1.27 and 1/2.5."""

    parts = ((1.0 / 3.0, stats.expon(scale=1.0 / 1.27)), (2.0 / 3.0, stats.expon(scale=1.0 / 2.5)))

    def pdf(self, t):
        return sum(w * law.pdf(t) for w, law in self.parts)

    def sf(self, t):
        return sum(w * law.sf(t) for w, law in self.parts)


# the scenario laws written independently of the package, on scipy.stats
SCIPY_LAWS = {
    1: (stats.expon(scale=0.5), _ExpMix()),
    2: (stats.weibull_min(0.9, scale=1.65), stats.lognorm(1.0)),
    3: (stats.weibull_min(1.5), stats.weibull_min(1.5)),
}


class TestTrueEffect:
    @staticmethod
    def _quad_effect(setup):
        # P(T1 > T2) on [0, K] plus the tie of two times that both reach K
        law1, law2 = SCIPY_LAWS[setup]
        k = SETUPS[setup][2]
        head, _ = integrate.quad(lambda t: law1.sf(t) * law2.pdf(t), 0.0, k, limit=200,
                                 epsabs=1e-14, epsrel=1e-13)
        return head + 0.5 * law1.sf(k) * law2.sf(k)

    def test_matches_independent_quadrature(self):
        for setup in (1, 2, 3):
            assert abs(true_effect(setup) - self._quad_effect(setup)) <= 1e-9, setup

    def test_identical_groups_give_exactly_one_half(self):
        assert abs(true_effect(3) - 0.5) <= 1e-12

    def test_survival_functions_match_scipy(self):
        t = np.concatenate([np.logspace(-8, 0, 200), np.linspace(0.0, 3.0, 301)[1:]])
        for setup, laws in SCIPY_LAWS.items():
            for group, law in enumerate(laws, start=1):
                assert_allclose(SETUPS[setup][group - 1].survival(t), law.sf(t), rtol=1e-13)

    def test_all_setups_sit_at_the_null(self):
        for setup in (1, 2, 3):
            assert abs(true_effect(setup) - 0.5) < 0.005


class TestSetupTag:
    def test_unknown_setup_is_a_clear_error(self):
        cases = [
            lambda: ScenarioConfig(setup=0, censoring="none", n1=5, n2=5),
            lambda: true_effect(7),
            lambda: calibrate_censoring(7, "none"),
            lambda: calibrate_censoring(7, "strong"),
            lambda: truncation_proportions(7, "strong"),
            lambda: truncation_proportions(4, "none"),
            lambda: true_effect(0),
        ]
        for call in cases:
            with pytest.raises(ValueError, match="setup must be 1, 2 or 3"):
                call()

    def test_setup_tag_must_be_an_integer(self):
        # True and 2.0 used to pass as 1 and 2, also through the caches
        # that an earlier call with the integer tag had filled
        true_effect(1)
        calibrate_censoring(2, "strong")
        cases = [
            lambda: true_effect(True),
            lambda: calibrate_censoring(2.0, "strong"),
            lambda: truncation_proportions(2.0, "none"),
            lambda: ScenarioConfig(setup=True, censoring="none", n1=5, n2=5),
            lambda: ScenarioConfig(setup=3.0, censoring="none", n1=5, n2=5),
            lambda: true_effect([1]),  # checked before the cache hashes it
        ]
        for call in cases:
            with pytest.raises(ValueError, match="setup must be an integer"):
                call()
        assert true_effect(np.int64(3)) == true_effect(3)


class TestCalibration:
    def test_unknown_level_is_a_clear_error(self):
        # a list used to raise "unhashable type" from the cache
        for level in ("weak", ["strong"]):
            with pytest.raises(ValueError, match="censoring level must be"):
                calibrate_censoring(1, level)

    def test_achieved_fractions_inside_bands(self):
        for setup in (1, 2, 3):
            for level, (lo, hi) in CENSORING_BANDS.items():
                cal = calibrate_censoring(setup, level)
                assert lo <= cal.achieved1 <= hi
                assert lo <= cal.achieved2 <= hi

    def test_setup3_shares_one_rate(self):
        assert SETUPS[3][0] is SETUPS[3][1]
        for level in ("strong", "moderate"):
            cal = calibrate_censoring(3, level)
            assert cal.rate1 == cal.rate2

    def test_none_level_disables_censoring(self):
        cal = calibrate_censoring(2, "none")
        assert cal == CensoringCalibration(0.0, 0.0, 0.0, 0.0)

    def test_frozen_setup1_strong_rates(self):
        cal = calibrate_censoring(1, "strong")
        assert_allclose(cal.rate1, 1.4646785916807836, atol=1e-12)
        assert_allclose(cal.rate2, 1.444548560881123, atol=1e-12)

    def test_equals_per_step_reference_bitwise(self):
        for setup in (1, 2, 3):
            for level in ("strong", "moderate"):
                got = calibrate_censoring(setup, level)
                want = reference_calibrate_censoring(setup, level)
                assert ([x.hex() for x in astuple(got)]
                        == [x.hex() for x in astuple(want)]), (setup, level)

    def test_stronger_band_needs_larger_rate(self):
        for setup in (1, 2, 3):
            strong = calibrate_censoring(setup, "strong")
            moderate = calibrate_censoring(setup, "moderate")
            assert strong.rate1 > moderate.rate1
            assert strong.rate2 > moderate.rate2


class TestTruncationProportions:
    def test_setup2_columns(self):
        expected = {"strong": (12.16, 10.44), "moderate": (22.3, 17.43), "none": (34.26, 28.37)}
        for level, (e1, e2) in expected.items():
            p1, p2 = truncation_proportions(2, level)
            assert abs(p1 - e1) <= 1.0
            assert abs(p2 - e2) <= 1.0

    def test_setup3_uncensored(self):
        p1, p2 = truncation_proportions(3, "none")
        assert abs(p1 - 6.02) <= 0.7
        assert abs(p2 - 6.02) <= 0.7

    def test_setup1_group1_strong(self):
        p1, _ = truncation_proportions(1, "strong")
        assert abs(p1 - 0.36) <= 0.25

    def test_censoring_lowers_recorded_exceedances(self):
        none1, _ = truncation_proportions(2, "none")
        strong1, _ = truncation_proportions(2, "strong")
        assert strong1 < none1

    def test_equals_own_loop_reference_bitwise(self):
        for setup in (1, 2, 3):
            for level in ("strong", "moderate", "none"):
                for pre in (False, True):
                    got = truncation_proportions(setup, level, pre_censoring=pre)
                    want = reference_truncation_proportions(setup, level, pre_censoring=pre)
                    assert got == want, (setup, level, pre)

    def test_pre_censoring_variant_ignores_censoring(self):
        a = truncation_proportions(2, "strong", pre_censoring=True)
        b = truncation_proportions(2, "none", pre_censoring=True)
        assert_allclose(a, b, atol=0.8)


class TestScenarioConfig:
    def test_defaults_fill_horizon(self):
        cfg = ScenarioConfig(setup=2, censoring="moderate", n1=10, n2=20)
        assert (cfg.alpha, cfg.reps, cfg.b) == (0.05, 1000, 1999)

    def test_rejections(self):
        base = dict(setup=1, censoring="none", n1=10, n2=10)
        bad = [
            (dict(base, setup=4), "setup must be 1, 2 or 3"),
            (dict(base, censoring="weak"), "censoring level"),
            (dict(base, censoring=["strong"]), "censoring level"),
            (dict(base, n1=0), "group sizes"),
            (dict(base, alpha=1.5), "alpha"),
            # non-numbers used to fail with a bare TypeError from the comparison
            *((dict(base, alpha=alpha), r"alpha must be in \(0, 1\)")
              for alpha in ("0.1", None, True, math.nan)),
            (dict(base, reps=0), "reps and b"),
            (dict(base, b=0), "reps and b"),
            (dict(base, seed=-1), "seed"),
            (dict(base, workers=0), "workers"),
        ]
        for kwargs, match in bad:
            with pytest.raises(ValueError, match=match):
                ScenarioConfig(**kwargs)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cell.cfg"
        path.write_text(
            "# one cell\nsetup = 2\ncensoring=moderate\nn1 = 10\nn2=20\n"
            "reps=50\nb=99\nseed=4\nalpha=0.1\nworkers=2\n\n"
        )
        parsed = parse_config_file(path)
        assert parsed == {
            "setup": 2, "censoring": "moderate", "n1": 10, "n2": 20,
            "reps": 50, "b": 99, "seed": 4, "alpha": 0.1, "workers": 2,
        }
        assert [type(parsed[key]) for key in ("setup", "censoring", "alpha")] == [int, str, float]
        ScenarioConfig(**parsed)

    def test_error_lines_are_numbered(self, tmp_path):
        cases = [
            ("setup 2\n", "line 2: expected key=value"),
            ("setup=abc\n", "line 2: bad value for setup"),
            ("foo=1\n", "line 2: unknown key 'foo'"),
            ("k=0.5\n", "line 2: unknown key 'k'"),
        ]
        for text, match in cases:
            path = tmp_path / "bad.cfg"
            path.write_text("n1=5\n" + text)
            with pytest.raises(ValueError, match=match):
                parse_config_file(path)

    def test_repeated_key_is_refused(self, tmp_path):
        # the last of two values used to win without a word
        path = tmp_path / "twice.cfg"
        path.write_text("setup=1\nn1=5\nsetup=2\n")
        with pytest.raises(ValueError, match="line 3: repeated key 'setup'"):
            parse_config_file(path)


class TestGenerate:
    def test_equals_truncate_first_reference_bitwise(self):
        # the two forms differ only where a censoring time equals k exactly
        for setup in (1, 2, 3):
            for level in ("strong", "moderate", "none"):
                cal = calibrate_censoring(setup, level)
                config = ScenarioConfig(setup=setup, censoring=level, n1=20, n2=30, seed=9)
                for rep in range(25):
                    got = _generate(config, cal, rep)
                    want = reference_generate(config, cal, rep)
                    assert got[2] == want[2]
                    for a, b in zip(got[:2], want[:2]):
                        assert a.k == b.k == SETUPS[setup][2]
                        assert a.times.tobytes() == b.times.tobytes(), (setup, level, rep)
                        assert_array_equal(a.events, b.events)


class TestCoverageStudy:
    def test_deterministic_and_accounted(self):
        cfg = ScenarioConfig(setup=3, censoring="none", n1=10, n2=10,
                             reps=60, b=99, seed=11)
        row1 = coverage_study(cfg)
        row2 = coverage_study(cfg)
        assert row1 == row2
        assert row1.config is cfg
        assert row1.reps + row1.excluded == cfg.reps
        for cov in (row1.cov_asymptotic, row1.cov_bootstrap, row1.cov_permutation):
            assert 0.0 <= cov <= 100.0

    def test_worker_count_invariant(self):
        cfg1 = ScenarioConfig(setup=1, censoring="moderate", n1=10, n2=10,
                              reps=40, b=99, seed=3, workers=1)
        cfg4 = ScenarioConfig(setup=1, censoring="moderate", n1=10, n2=10,
                              reps=40, b=99, seed=3, workers=4)
        assert coverage_study(cfg1) == coverage_study(cfg4)

    @pytest.mark.parametrize("error", [ValueError, DegenerateError])
    def test_only_degeneracy_excludes_a_replication(self, monkeypatch, error):
        # a degenerate statistic excludes the replication; any other fault,
        # here a ValueError from the engine, stops the study rather than
        # reading as NaN coverages
        def broken(*args, **kwargs):
            raise error("operands could not be broadcast together")

        monkeypatch.setattr(_engine, "batch_statistics", broken)
        cfg = ScenarioConfig(setup=3, censoring="none", n1=5, n2=5, reps=3, b=9, seed=0)
        if error is DegenerateError:
            row = coverage_study(cfg)
            assert (row.reps, row.excluded) == (0, 3)
            assert math.isnan(row.cov_permutation)
        else:
            with pytest.raises(ValueError, match="broadcast"):
                coverage_study(cfg)

    def test_null_scenario_permutation_band(self):
        # both groups share one law, so nominal 95% coverage should hold
        # up to binomial noise: 95 +- ~2.8 at 400 replications
        cfg = ScenarioConfig(setup=3, censoring="strong", n1=12, n2=12,
                             reps=400, b=299, seed=5)
        row = coverage_study(cfg)
        assert 92.2 <= row.cov_permutation <= 97.8
        assert 92.2 <= row.cov_bootstrap <= 97.8
        assert row.excluded <= 20

    def test_text_and_tsv_rendering(self):
        cfg = ScenarioConfig(setup=3, censoring="none", n1=10, n2=10,
                             reps=30, b=49, seed=2)
        row = coverage_study(cfg)
        text = coverage_text([row])
        assert "asymptotic" in text and "permutation" in text
        tsv = coverage_tsv([row])
        lines = tsv.strip().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split("\t")) == len(lines[1].split("\t"))

    def test_proportions_text_mentions_groups(self):
        out = proportions_text([(2, "strong")])
        assert "group 1" in out and "group 2" in out


class TestFullStudy:
    def test_cell_grid_shape(self):
        configs = full_study_configs(base_seed=0)
        assert len(configs) == 90
        assert all(c.reps == 10_000 and c.b == 1999 for c in configs)
        assert len({c.seed for c in configs}) == 90
        sizes = {(c.n1, c.n2) for c in configs}
        assert sizes == {(m, m) for m in (10, 15, 20, 25, 30)} | {
            (m, 2 * m) for m in (10, 15, 20, 25, 30)
        }
        assert {c.setup for c in configs} == {1, 2, 3}
        assert {c.censoring for c in configs} == {"strong", "moderate", "none"}

    def test_seed_offset_applied(self):
        offset = full_study_configs(base_seed=1000)
        assert all(c.seed >= 1000 for c in offset)
