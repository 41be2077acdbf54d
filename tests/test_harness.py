import dataclasses
import json

import numpy as np
import pytest

from grassgeo import harness, metrics, noncompact
from grassgeo.errors import DimensionMismatchError
from grassgeo.harness import FuzzReport, TrialConfig
from grassgeo.noncompact import PosDefPoint
from grassgeo.subspaces import Subspace, jordan_angles

# sizes that each space cannot draw from: p > q or p = 0 for the Grassmannians, n = 0 otherwise
UNDRAWABLE = {
    "grassmann-real": {"p": 0},
    "grassmann-complex": {"p": 5, "q": 4},
    "posdef": {"n": 0},
    "hermitian-lidskii": {"n": 0},
    "ball": {"n": 0},
}


def load_matrix(dumped):
    """Inverse of the harness's matrix dump: a nested list, or {"re", "im"} lists."""
    if isinstance(dumped, dict):
        m = np.empty(np.shape(dumped["re"]), dtype=complex)
        m.real, m.imag = dumped["re"], dumped["im"]
        return m
    return np.asarray(dumped, dtype=float)


class TestGenerators:
    def test_random_subspace_orthonormal(self, rng):
        s = harness.random_subspace(3, 5, "complex", rng)
        assert s.frame.shape == (8, 3)
        assert np.linalg.norm(s.frame.conj().T @ s.frame - np.eye(3)) < 1e-10

    def test_random_rotation_unitary(self, rng):
        for field in ("real", "complex"):
            g = harness.random_rotation(5, field, rng)
            assert np.linalg.norm(g.conj().T @ g - np.eye(5)) < 1e-10

    def test_random_posdef_is_posdef(self, rng):
        m = harness.random_posdef(4, "complex", rng)
        lam = np.linalg.eigvalsh(m.matrix)
        assert lam.min() > 0

    def test_random_hermitian(self, rng):
        h = harness.random_hermitian(4, "complex", rng)
        assert np.linalg.norm(h - h.conj().T) < 1e-12

    def test_random_ball_point_in_ball(self, rng):
        for _ in range(10):
            t = harness.random_ball_point(3, rng)
            assert np.linalg.norm(t.matrix - t.matrix.T) < 1e-12
            assert np.linalg.norm(t.matrix, 2) < 0.96

    def test_trial_rng_substreams_differ(self):
        a = harness.trial_rng(7, 0).standard_normal(4)
        b = harness.trial_rng(7, 1).standard_normal(4)
        c = harness.trial_rng(7, 0).standard_normal(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, c)


class TestTrialConfig:
    def test_rejects_unknown_space(self):
        with pytest.raises(ValueError):
            TrialConfig(space="torus")

    def test_runs_large_p_for_grassmann(self):
        # triangle verdicts need no group enumeration, so p is not capped
        cfg = TrialConfig(space="grassmann-real", p=8, q=8, trials=4)
        report = harness.run_trials(cfg)
        assert report.all_passed
        assert all(s.passed == cfg.trials for s in report.checks.values())

    def test_norm_specs_parse(self):
        cfg = TrialConfig(space="ball", norms=("l1", "kyfan3"))
        specs = cfg.norm_specs()
        assert [s.label() for s in specs] == ["l1", "kyfan3"]

    @pytest.mark.parametrize("space", harness.SPACES)
    def test_rejects_sizes_it_cannot_draw(self, space):
        with pytest.raises(DimensionMismatchError):
            TrialConfig(space=space, **UNDRAWABLE[space])

    def test_to_dict_round_trip(self):
        cfg = TrialConfig(space="posdef", n=5, trials=7, seed=3)
        d = cfg.to_dict()
        assert TrialConfig(**{**d, "norms": tuple(d["norms"])}) == cfg


class TestRunTrials:
    @pytest.mark.parametrize("space", harness.SPACES)
    def test_all_spaces_pass(self, space):
        cfg = TrialConfig(space=space, p=2, q=3, n=3, trials=8, seed=11)
        report = harness.run_trials(cfg)
        assert report.all_passed
        assert report.wall_time > 0
        for stats in report.checks.values():
            assert stats.failed == 0
            assert stats.passed == cfg.trials

    def test_expected_checks_present(self):
        cfg = TrialConfig(space="grassmann-real", p=2, q=3, trials=3, seed=0,
                          norms=("l1", "l2"))
        names = set(harness.run_trials(cfg).checks)
        assert names == {
            "triangle-membership",
            "angle-symmetry",
            "metric-triangle-l1",
            "metric-triangle-l2",
        }

    def test_deterministic_serialization(self):
        cfg = TrialConfig(space="ball", n=3, trials=6, seed=42)
        d1 = json.dumps(harness.run_trials(cfg).to_dict(), sort_keys=True)
        d2 = json.dumps(harness.run_trials(cfg).to_dict(), sort_keys=True)
        assert d1 == d2

    @pytest.mark.parametrize("space", ["grassmann-real", "grassmann-complex", "ball"])
    def test_metric_triangles_match_the_distances(self, space):
        # each angle vector is computed once per trial; the margins must equal
        # those of the public distance functions bit for bit
        cfg = TrialConfig(space=space, trials=6, seed=9)
        report = harness.run_trials(cfg)
        if space == "ball":
            dist, prefix = noncompact.ball_distance, "ball-"

            def draw(rng):
                return harness.random_ball_point(cfg.n, rng)
        else:
            dist, prefix = metrics.distance, ""

            def draw(rng):
                return harness.random_subspace(cfg.p, cfg.q, space.split("-")[1], rng)

        for norm in cfg.norm_specs():
            worst = np.inf
            for trial in range(cfg.trials):
                rng = harness.trial_rng(cfg.seed, trial)
                a, b, c = (draw(rng) for _ in range(3))
                worst = min(worst, dist(a, b, norm) + dist(b, c, norm) - dist(a, c, norm))
            assert report.checks[f"{prefix}metric-triangle-{norm.label()}"].worst_slack == worst

    def test_wall_time_excluded_from_dict(self):
        cfg = TrialConfig(space="hermitian-lidskii", n=3, trials=2, seed=1)
        d = harness.run_trials(cfg).to_dict()
        assert "wall_time" not in json.dumps(d)

    def test_failure_recorded_under_tight_tolerance(self):
        # an absurdly small tolerance turns ordinary roundoff into failures
        cfg = TrialConfig(space="grassmann-real", p=2, q=3, trials=5, seed=5,
                          tolerance=1e-17)
        report = harness.run_trials(cfg)
        assert not report.all_passed
        failing = [s for s in report.checks.values() if s.failed]
        assert failing
        assert all(len(s.failures) <= 10 for s in failing)

    def test_failure_dump_replayable(self):
        cfg = TrialConfig(space="grassmann-real", p=2, q=3, trials=5, seed=5,
                          tolerance=1e-17)
        stats = harness.run_trials(cfg).checks["angle-symmetry"]
        assert stats.failures
        for dump in stats.failures:
            frames = [load_matrix(f) for f in dump["frames"]]
            rng = harness.trial_rng(cfg.seed, dump["trial"])
            for frame in frames:
                assert np.array_equal(harness.random_subspace(cfg.p, cfg.q, "real", rng).frame, frame)
            l, m, _ = (Subspace(f) for f in frames)
            assert np.max(np.abs(jordan_angles(l, m) - jordan_angles(m, l))) > cfg.tolerance

    def test_posdef_failure_dump_replayable(self):
        # complex matrices are dumped as {"re", "im"}; the replay reads them back exactly
        cfg = TrialConfig(space="posdef", n=3, trials=5, seed=5, tolerance=1e-17)
        stats = harness.run_trials(cfg).checks["posdef-sum-identity"]
        assert stats.failures
        for dump in stats.failures:
            mats = [load_matrix(x) for x in dump["matrices"]]
            rng = harness.trial_rng(cfg.seed, dump["trial"])
            for mat in mats:
                assert np.array_equal(harness.random_posdef(cfg.n, "complex", rng).matrix, mat)
            rep = noncompact.posdef_triangle_check(*(PosDefPoint(x) for x in mats))
            assert abs(np.sum(rep.theta) - np.sum(rep.phi) - np.sum(rep.psi)) > cfg.tolerance

    @pytest.mark.parametrize("space, check, owner, name, slack", [
        ("grassmann-real", "triangle-membership", metrics, "triangle_check", "best_slack"),
        ("posdef", "posdef-triangle", noncompact, "posdef_triangle_check", "best_slack"),
        ("hermitian-lidskii", "lidskii-membership", noncompact, "lidskii_check", "slack"),
    ], ids=["grassmann-real", "posdef", "hermitian-lidskii"])
    def test_membership_checks_take_the_library_verdict(self, monkeypatch, space, check,
                                                        owner, name, slack):
        # a slack between the library's boundary tolerance and the fuzz tolerance
        # reads outside to the library, so the fuzz check must fail it too
        real = getattr(owner, name)
        calls = []

        def outside_once(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append(None)
            if len(calls) > 1:
                return res
            return dataclasses.replace(res, inside=False, **{slack: -5e-9})

        monkeypatch.setattr(owner, name, outside_once)
        stats = harness.run_trials(TrialConfig(space=space, trials=3, seed=0)).checks[check]
        assert (stats.passed, stats.failed) == (2, 1)
        assert stats.worst_slack == -5e-9
        assert stats.failures[0]["trial"] == 0


class TestFuzzReport:
    def test_all_passed_property(self):
        from grassgeo.harness import CheckStats

        good = CheckStats()
        good.record(0.5, True)
        bad = CheckStats()
        bad.record(-1.0, False)
        assert FuzzReport(TrialConfig(space="ball"), {"a": good}).all_passed
        assert not FuzzReport(TrialConfig(space="ball"), {"a": good, "b": bad}).all_passed
