"""Output checks: each op's result against an independent numpy/scipy reference.

``Checker()(kind, x, out)`` returns ``None`` when the output is right, or a
short reason when it is not.  The references share no code with grassgeo:
angles come from the sine/cosine route on ``np.linalg.svd`` (Bjorck & Golub,
Math. Comp. 27, 1973; Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002),
generalized eigenvalues from ``scipy.linalg.eigh``, ball angles from a numpy
cross-ratio SVD, and certificates and decompositions are rebuilt from their
terms.  Two checks rest on the program itself: a fuzz report must pass every
check it ran, and CLI JSON must match the library's result on the same input.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

from workloads import GEODESIC_PARAMS, NORM_LABELS, signed_perm_matrix

ANGLE_TOL = 1e-8
CERTIFICATE_TOL = 1e-7
DECOMPOSE_TOL = {"birkhoff": 1e-9, "quasistochastic": 1e-7}
CLI_FIELDS = {"command", "inputs", "result", "tolerances", "version"}


def orthonormal(a: np.ndarray) -> np.ndarray:
    return np.linalg.qr(a)[0]


def angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jordan angles of span(a), span(b), increasing, accurate when small."""
    qa, qb = orthonormal(a), orthonormal(b)
    cross = qa.conj().T @ qb
    cos = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)  # decreasing
    sin = np.linalg.svd(qb - qa @ cross, compute_uv=False)[::-1]  # increasing
    small = cos**2 > 0.5
    return np.where(small, np.arcsin(np.clip(sin, 0.0, 1.0)), np.arccos(cos))


def norm(label: str, x: np.ndarray) -> float:
    x = np.sort(np.abs(x))[::-1]
    if label == "l1":
        return float(x.sum())
    if label == "l2":
        return float(np.sqrt((x * x).sum()))
    if label == "linf":
        return float(x[0])
    return float(x[: int(label[len("kyfan"):])].sum())


def projector_gap(frame: np.ndarray, a: np.ndarray) -> float:
    qa = orthonormal(a)
    return float(np.linalg.norm(frame @ frame.conj().T - qa @ qa.conj().T, 2))


def posdef_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sort(np.log(scipy.linalg.eigh(a, b, eigvals_only=True)))[::-1]


def _inv_sqrt(h: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(h)
    return (v / np.sqrt(lam)) @ v.conj().T


def ball_sigma(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Singular values of the cross-ratio matrix, increasing (all >= 1)."""
    eye = np.eye(len(t))
    cross = _inv_sqrt(eye - t @ t.conj().T) @ (eye - t @ s.conj()) @ _inv_sqrt(eye - s @ s.conj().T)
    return np.linalg.svd(cross, compute_uv=False)[::-1]


def _close(got, want, tol) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def _terms_error(terms, target_of, tol) -> str | None:
    """Weights >= 0 summing to 1 whose combination rebuilds the target."""
    if not terms:
        return "no terms"
    weights = np.array([wt for wt, _ in terms])
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-9:
        return f"weights not convex (min {weights.min():.3e}, sum {weights.sum():.12f})"
    built, target = target_of(terms)
    err = float(np.max(np.abs(built - target)))
    return None if err <= tol else f"rebuild error {err:.3e}"


# ---------------------------------------------------------------------------
# per-kind checks


def check_angles(x, out):
    ang, dists = out
    ref = angles(x[0], x[1])
    if not _close(ang, ref, ANGLE_TOL):
        return f"angles differ by {np.max(np.abs(np.asarray(ang) - ref)):.3e}"
    for label, d in zip(NORM_LABELS, dists):
        if not _close(d, norm(label, ref), ANGLE_TOL):
            return f"{label} distance {d!r} != {norm(label, ref)!r}"
    return None


def check_geodesic(x, out):
    curve, points = out
    if len(points) != len(GEODESIC_PARAMS):
        return f"{len(points)} points"
    if not _close(curve.a, angles(x[0], x[1]), ANGLE_TOL):
        return "curve rates are not the Jordan angles"
    gaps = projector_gap(points[0].frame, x[0]), projector_gap(points[-1].frame, x[1])
    if max(gaps) > ANGLE_TOL:
        return f"endpoints miss the inputs by {max(gaps):.3e}"
    return None


def check_posdef(x, out):
    ref = posdef_angles(x[0], x[1])
    return None if _close(out, ref, ANGLE_TOL) else f"posdef angles differ by {np.max(np.abs(out - ref)):.3e}"


def check_ball(x, out):
    ang, dist = out
    sigma = ball_sigma(x[0], x[1])
    # compare cosh(angle) with sigma: arcosh is ill-conditioned near 1
    if not _close(np.cosh(ang), sigma, ANGLE_TOL):
        return f"ball sigma differs by {np.max(np.abs(np.cosh(ang) - sigma)):.3e}"
    # the program reads sigma within 1e-13 of 1 as 1, an angle error up to 4.5e-7
    if not _close(dist, norm("l2", np.arccosh(np.maximum(sigma, 1.0))), 1e-6):
        return "ball distance differs"
    return None


def check_triangle(frames, rep, exact_angles: bool):
    phi, psi, theta = angles(frames[0], frames[1]), angles(frames[1], frames[2]), angles(frames[0], frames[2])
    if exact_angles:
        for got, want in ((rep.phi, phi), (rep.psi, psi), (rep.theta, theta)):
            if not _close(got, want, ANGLE_TOL):
                return "angles differ from the reference"
    # the triangle relation is a theorem: every triple is inside
    if not rep.inside:
        return f"verdict OUTSIDE, slack {rep.best_slack:.3e}"
    if rep.certificate is None:
        return "inside but no certificate"
    w = rep.witness
    target = np.asarray(w.signs) * theta[list(w.perm)] - phi

    def rebuild(terms):
        built = sum(wt * np.asarray(g.signs) * psi[list(g.perm)] for wt, g in terms)
        return built, target

    return _terms_error(rep.certificate, rebuild, CERTIFICATE_TOL)


def check_decomposition(kind, a, terms):
    def rebuild(terms):
        return sum(wt * signed_perm_matrix(g.perm, g.signs) for wt, g in terms), a

    return _terms_error(terms, rebuild, DECOMPOSE_TOL[kind])


def check_fuzz(config, report):
    if report.config != config:
        return "report config differs from the request"
    for name, stats in report.checks.items():
        if stats.failed or stats.passed != config.trials:
            return f"check {name}: passed {stats.passed}, failed {stats.failed} of {config.trials}"
    return None if report.checks else "no checks ran"


# ---------------------------------------------------------------------------
# cli-small: JSON against the library on the same input


def cli_expected(cmd: str, arrays: dict) -> dict:
    """Library result for one CLI input, as flat {json path: value}."""
    from grassgeo import metrics, noncompact, subspaces, weyl

    sub = lambda flag: subspaces.Subspace.from_spanning(arrays[flag])  # noqa: E731
    if cmd == "angles":
        return {"angles": subspaces.jordan_angles(sub("--left"), sub("--right"))}
    if cmd == "distance":
        return {"distance": metrics.distance(sub("--left"), sub("--right"), metrics.NormSpec.l2())}
    if cmd == "geodesic":
        curve = metrics.hcurve_between(sub("--left"), sub("--right"))
        out = {"invariants": curve.a}
        for j, s in enumerate(GEODESIC_PARAMS):
            frame = metrics.hcurve_eval(curve, s).frame
            out[f"points.{j}.frame"] = frame
        return out
    if cmd == "triangle":
        rep = metrics.triangle_check(sub("--l"), sub("--m"), sub("--n"), want_certificate=True)
        return {
            "inside": rep.inside,
            "best_slack": rep.best_slack,
            "certificate": [wt for wt, _ in rep.certificate],
        }
    if cmd == "decompose":
        return {"terms": [wt for wt, _ in weyl.birkhoff_decompose(arrays["--matrix"])]}
    if cmd == "fan-ky":
        res = weyl.fan_ky_diagonal_check(arrays["--matrix"])
        return {"inside": res.inside, "slack": res.slack}
    if cmd == "posdef-angles":
        left, right = noncompact.PosDefPoint(arrays["--left"]), noncompact.PosDefPoint(arrays["--right"])
        return {"angles": noncompact.posdef_angles(left, right)}
    if cmd == "lidskii":
        res = noncompact.lidskii_check(arrays["--x"], arrays["--z"])
        return {"inside": res.inside, "slack": res.slack}
    if cmd == "ball-angles":
        t, s = noncompact.BallPoint(arrays["--t"]), noncompact.BallPoint(arrays["--s"])
        return {"angles": noncompact.ball_angles(t, s), "distance": noncompact.ball_distance(t, s, metrics.NormSpec.l2())}
    raise ValueError(f"no reference for subcommand {cmd!r}")


def _json_value(result, path: str):
    for part in path.split("."):
        result = result[int(part)] if part.isdigit() else result[part]
    if isinstance(result, dict) and set(result) == {"re", "im"}:
        return np.asarray(result["re"]) + 1j * np.asarray(result["im"])
    if isinstance(result, list) and result and isinstance(result[0], dict) and "weight" in result[0]:
        return [term["weight"] for term in result]
    return result


def check_cli(x, out, expected: dict):
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if set(doc) != CLI_FIELDS or doc["command"] != x.key[0]:
        return f"top-level fields {sorted(doc)}"
    for path, want in expected.items():
        try:
            got = _json_value(doc["result"], path)
        except (KeyError, IndexError, TypeError):
            return f"result lacks {path}"
        if isinstance(want, (bool, np.bool_)):
            # JSON must carry a true boolean; the library may hand back numpy's
            if not isinstance(got, bool) or got != bool(want):
                return f"{path}: {got!r} != {want!r}"
        elif not _close(np.asarray(got, dtype=np.asarray(want).dtype), want, 1e-11):
            return f"{path} differs from the library"
    return None


class Checker:
    """Runs the check an op kind names; caches one CLI library result per input."""

    def __init__(self):
        self._cli = {}

    def __call__(self, kind, x, out):
        if kind.check == "triangle":
            return check_triangle(x, out, exact_angles=not kind.boundary)
        if kind.check == "decompose":
            return check_decomposition(kind.name, x, out)
        if kind.check == "cli":
            if x.key not in self._cli:
                self._cli[x.key] = cli_expected(x.key[0], x.arrays)
            return check_cli(x, out, self._cli[x.key])
        return CHECKS[kind.check](x, out)


CHECKS = {
    "angles": check_angles,
    "geodesic": check_geodesic,
    "posdef": check_posdef,
    "ball": check_ball,
    "fuzz": check_fuzz,
}
