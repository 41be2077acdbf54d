import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grassgeo import cli
from grassgeo.errors import MatrixParseError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestMatrixGrammar:
    def test_real_matrix(self):
        a = cli.parse_matrix("1 2.5\n-3e-2 .5\n")
        assert a.dtype == float
        assert np.allclose(a, [[1, 2.5], [-0.03, 0.5]])

    def test_blank_lines_skipped(self):
        a = cli.parse_matrix("\n1 2\n\n3 4\n\n")
        assert a.shape == (2, 2)

    def test_complex_entries(self):
        a = cli.parse_matrix("1+2i 3i\n-1.5-0.5i 2\n")
        assert a[0, 0] == 1 + 2j
        assert a[0, 1] == 3j
        assert a[1, 0] == -1.5 - 0.5j

    def test_ragged_rejected(self):
        with pytest.raises(MatrixParseError) as exc:
            cli.parse_matrix("1 2\n3\n")
        assert exc.value.line == 2

    def test_malformed_token_location(self):
        with pytest.raises(MatrixParseError) as exc:
            cli.parse_matrix("1 2\n3 4x\n")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_empty_rejected(self):
        with pytest.raises(MatrixParseError):
            cli.parse_matrix("  \n\n")

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 2),
                  elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)))
    def test_real_round_trip(self, a):
        assert np.array_equal(cli.parse_matrix(cli.format_matrix(a)), a)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, (2, 2), elements=st.floats(-10, 10)),
        arrays(np.float64, (2, 2), elements=st.floats(-10, 10)),
    )
    def test_complex_round_trip(self, re_part, im_part):
        a = re_part + 1j * im_part
        assert np.array_equal(cli.parse_matrix(cli.format_matrix(a)), a)


class TestSubcommands:
    def test_angles(self, tmp_path, capsys):
        left = write(tmp_path, "l.txt", "1 0\n0 1\n0 0\n0 0\n")
        t = np.pi / 3
        right = write(tmp_path, "r.txt", f"1 0\n0 {float(np.cos(t))!r}\n0 {float(np.sin(t))!r}\n0 0\n")
        code, doc = run(capsys, "angles", "--left", left, "--right", right)
        assert code == 0
        assert doc["command"] == "angles"
        assert set(doc) == {"command", "inputs", "result", "tolerances", "version"}
        assert doc["result"]["angles"] == pytest.approx([0.0, t], abs=1e-9)

    def test_angles_degrees(self, tmp_path, capsys):
        left = write(tmp_path, "l.txt", "1\n0\n")
        right = write(tmp_path, "r.txt", "1\n1\n")
        code, doc = run(capsys, "angles", "--left", left, "--right", right, "--degrees")
        assert code == 0
        assert doc["result"]["angles"] == pytest.approx([45.0], abs=1e-9)

    def test_distance_norms(self, tmp_path, capsys):
        left = write(tmp_path, "l.txt", "1 0\n0 1\n0 0\n0 0\n")
        right = write(tmp_path, "r.txt", "1 0\n0 0\n0 1\n0 0\n")
        code, doc = run(capsys, "distance", "--left", left, "--right", right, "--norm", "linf")
        assert code == 0
        assert doc["result"]["distance"] == pytest.approx(np.pi / 2, abs=1e-9)

    def test_geodesic_samples(self, tmp_path, capsys):
        left = write(tmp_path, "l.txt", "1\n0\n")
        right = write(tmp_path, "r.txt", "1\n1\n")
        code, doc = run(capsys, "geodesic", "--left", left, "--right", right,
                        "--samples", "3")
        assert code == 0
        assert doc["result"]["invariants"] == pytest.approx([np.pi / 4], abs=1e-9)
        assert len(doc["result"]["points"]) == 3
        mid = np.array(doc["result"]["points"][1]["frame"])
        ang = np.arctan2(abs(mid[1, 0]), abs(mid[0, 0]))
        assert ang == pytest.approx(np.pi / 8, abs=1e-9)

    def test_triangle_inside_with_certificate(self, tmp_path, capsys, rng):
        paths = []
        for name in ("l", "m", "n"):
            frame = np.linalg.qr(rng.standard_normal((5, 2)))[0]
            paths.append(write(tmp_path, f"{name}.txt", cli.format_matrix(frame)))
        code, doc = run(capsys, "triangle", "--l", paths[0], "--m", paths[1],
                        "--n", paths[2], "--certificate")
        assert code == 0
        assert doc["result"]["inside"] is True
        assert doc["result"]["best_slack"] >= -1e-8
        weights = [t["weight"] for t in doc["result"]["certificate"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_decompose_bistochastic(self, tmp_path, capsys):
        mat = write(tmp_path, "a.txt", "0.5 0.5\n0.5 0.5\n")
        code, doc = run(capsys, "decompose", "--matrix", mat)
        assert code == 0
        assert doc["result"]["kind"] == "bistochastic"
        assert doc["result"]["reconstruction_error"] <= 1e-9

    def test_decompose_signed(self, tmp_path, capsys):
        mat = write(tmp_path, "a.txt", "0 -1\n1 0\n")
        code, doc = run(capsys, "decompose", "--matrix", mat, "--signed")
        assert code == 0
        assert doc["result"]["kind"] == "quasistochastic"

    def test_fan_ky(self, tmp_path, capsys):
        mat = write(tmp_path, "a.txt", "1 0 2\n0 -1 1\n")
        code, doc = run(capsys, "fan-ky", "--matrix", mat)
        assert code == 0
        assert doc["result"]["inside"] is True
        assert doc["tolerances"]["boundary"] == 1e-9

    def test_fan_ky_tolerance_reaches_the_check(self, tmp_path, capsys):
        # Q diag(1, 0.5, 0.2) Q^t: inside in exact arithmetic, slack -2.2e-16 after rounding
        mat = write(tmp_path, "a.txt",
                    "0.7382402400203091 -0.03281187911645219 -0.2552497288123193\n"
                    "-0.03281187911645219 0.26815490154449245 0.17255218081449739\n"
                    "-0.2552497288123193 0.17255218081449739 0.6936048584351987\n")
        code, doc = run(capsys, "fan-ky", "--matrix", mat)
        assert code == 0
        assert -1e-9 <= doc["result"]["slack"] < 0
        code, doc = run(capsys, "--tol", "1e-30", "fan-ky", "--matrix", mat)
        assert code == 1
        assert doc["result"]["inside"] is False
        assert doc["tolerances"]["boundary"] == 1e-30

    def test_posdef_angles(self, tmp_path, capsys):
        left = write(tmp_path, "l.txt", "4 0\n0 1\n")
        right = write(tmp_path, "r.txt", "1 0\n0 1\n")
        code, doc = run(capsys, "posdef-angles", "--left", left, "--right", right)
        assert code == 0
        assert doc["result"]["angles"] == pytest.approx([np.log(4), 0.0], abs=1e-9)

    def test_lidskii(self, tmp_path, capsys):
        x = write(tmp_path, "x.txt", "3 0\n0 1\n")
        z = write(tmp_path, "z.txt", "0.5 0\n0 -0.5\n")
        code, doc = run(capsys, "lidskii", "--x", x, "--z", z)
        assert code == 0
        assert doc["result"]["inside"] is True
        # non-diagonal input: the tightest margin is the rounded trace, not a partial sum
        x = write(tmp_path, "x2.txt", "2 1\n1 0\n")
        z = write(tmp_path, "z2.txt", "0.3 0.2\n0.2 -0.1\n")
        code, doc = run(capsys, "lidskii", "--x", x, "--z", z)
        assert code == 0
        assert doc["result"]["inside"] is True

    def test_lidskii_tolerance_reaches_the_check(self, tmp_path, capsys):
        # the rounded trace leaves a slack of about -3e-16
        x = write(tmp_path, "x.txt", "1 1\n1 0\n")
        z = write(tmp_path, "z.txt", "0.1 0.5\n0.5 -0.1\n")
        code, doc = run(capsys, "lidskii", "--x", x, "--z", z)
        assert code == 0
        assert -1e-9 <= doc["result"]["slack"] < 0
        code, doc = run(capsys, "--tol", "1e-30", "lidskii", "--x", x, "--z", z)
        assert code == 1
        assert doc["result"]["inside"] is False
        assert doc["tolerances"]["boundary"] == 1e-30

    def test_ball_angles_with_distance(self, tmp_path, capsys):
        t = write(tmp_path, "t.txt", "0\n")
        s = write(tmp_path, "s.txt", "0.5\n")
        code, doc = run(capsys, "ball-angles", "--t", t, "--s", s, "--norm", "l2")
        assert code == 0
        assert doc["result"]["angles"][0] == pytest.approx(0.5493061443340549, abs=1e-9)
        assert doc["result"]["distance"] == pytest.approx(0.5493061443340549, abs=1e-9)

    def test_fuzz_runs_and_is_deterministic(self, capsys):
        argv = ["fuzz", "--space", "ball", "--n", "3", "--trials", "5", "--seed", "9"]
        code1, doc1 = run(capsys, *argv)
        code2, doc2 = run(capsys, *argv)
        assert code1 == code2 == 0
        assert doc1["result"] == doc2["result"]
        assert doc1["result"]["all_passed"] is True

    @pytest.mark.parametrize("tol, expected", [(None, 1e-8), ("1e-9", 1e-9), ("1e-7", 1e-7)])
    def test_fuzz_check_tolerance(self, capsys, tol, expected):
        # a given --tol reaches the fuzz checks, even one equal to the verdict default
        argv = ["fuzz", "--space", "hermitian-lidskii", "--n", "3", "--trials", "2", "--seed", "1"]
        code, doc = run(capsys, *(["--tol", tol] if tol else []), *argv)
        assert code == 0
        assert doc["result"]["config"]["tolerance"] == expected
        assert doc["tolerances"]["check"] == expected


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code = cli.dispatch(["angles", "--left", str(tmp_path / "absent.txt"),
                             "--right", str(tmp_path / "absent.txt")])
        assert code == 2

    def test_parse_error_is_usage_error(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.txt", "1 oops\n")
        code = cli.dispatch(["angles", "--left", bad, "--right", bad])
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.dispatch(["frobnicate"]) == 2

    def test_math_domain_error_is_one(self, capsys, tmp_path):
        # ball point with operator norm 1 is rejected as a domain failure
        t = write(tmp_path, "t.txt", "1\n")
        code = cli.dispatch(["ball-angles", "--t", t, "--s", t])
        assert code == 1

    def test_dimension_mismatch_is_one(self, capsys, tmp_path):
        left = write(tmp_path, "l.txt", "1 0\n0 1\n0 0\n")
        right = write(tmp_path, "r.txt", "1\n0\n0\n")
        code = cli.dispatch(["angles", "--left", left, "--right", right])
        assert code == 1

    def test_help_exits_cleanly(self, capsys):
        assert cli.dispatch(["--help"]) == 0
