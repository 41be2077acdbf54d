"""Command-line surface.

Matrices live in plain text files (one row per line, whitespace-separated
entries, complex entries written a+bi with no interior spaces).  Every
subcommand prints a JSON document with top-level fields
{command, inputs, result, tolerances, version} and exits 0 on success,
1 when a mathematical check fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__, harness, metrics, noncompact, subspaces, weyl
from .errors import GrassGeoError, MatrixParseError
from .metrics import NormSpec
from .noncompact import BallPoint, PosDefPoint
from .subspaces import Subspace

_FLOAT = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"


def _parse_token(tok: str, line: int, column: int):
    """One scalar: real "1.5", imaginary "2i", or full "a+bi"."""
    if tok.endswith("i"):
        body = tok[:-1]
        m = re.fullmatch(rf"(?P<re>{_FLOAT})(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)", body)
        if m:
            return complex(float(m.group("re")), float(m.group("im")))
        m = re.fullmatch(_FLOAT, body)
        if m:
            return complex(0.0, float(body))
        raise MatrixParseError(
            f"malformed complex entry {tok!r} at line {line}, column {column}",
            line=line,
            column=column,
        )
    m = re.fullmatch(_FLOAT, tok)
    if m:
        return float(tok)
    raise MatrixParseError(
        f"malformed numeral {tok!r} at line {line}, column {column}", line=line, column=column
    )


def parse_matrix(text: str) -> np.ndarray:
    """Parse the whitespace matrix grammar; raises MatrixParseError."""
    rows = []
    width = None
    lineno = 0
    for raw in text.splitlines():
        lineno += 1
        if not raw.strip():
            continue
        entries = []
        col = 0
        for tok in raw.split():
            col = raw.index(tok, col) + 1
            entries.append(_parse_token(tok, lineno, col))
            col += len(tok) - 1
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise MatrixParseError(
                f"ragged row at line {lineno}: expected {width} entries, got {len(entries)}",
                line=lineno,
            )
        rows.append(entries)
    if not rows:
        raise MatrixParseError("empty matrix text")
    arr = np.array(rows)
    return arr if np.iscomplexobj(arr) else arr.astype(float)


def format_matrix(a: np.ndarray) -> str:
    """Serialize to the matrix grammar, round-tripping to full precision."""
    a = np.asarray(a)

    def fmt(x) -> str:
        if np.iscomplexobj(a):
            re_part, im_part = float(np.real(x)), float(np.imag(x))
            sign = "+" if im_part >= 0 else "-"
            return f"{re_part!r}{sign}{abs(im_part)!r}i"
        return repr(float(x))

    return "\n".join(" ".join(fmt(x) for x in row) for row in np.atleast_2d(a))


def _load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _round_sig(x: float, digits: int = 12) -> float:
    return float(f"{float(x):.{digits}g}")


def _angles_out(angles: np.ndarray, degrees: bool = False):
    vals = np.degrees(angles) if degrees else angles
    return [_round_sig(v) for v in vals]


def _perm_out(w: weyl.SignedPermutation):
    return {"perm": list(w.perm), "signs": list(w.signs)}


def _certificate_out(cert):
    return [{"weight": wt, "element": _perm_out(w)} for wt, w in cert]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassgeo",
        description="Jordan angles, invariant distances and triangle certification",
    )
    parser.add_argument("--tol", type=float,
                        help="boundary tolerance for membership verdicts (default 1e-9), "
                             "or check tolerance for fuzz (default 1e-8)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, **kwargs)

    p = add("angles", help="Jordan angles between the spans of two matrices")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--degrees", action="store_true", help="display in degrees")

    p = add("distance", help="invariant distance between two subspaces")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--norm", default="l2", help="l1, l2, linf or kyfanK (default l2)")

    p = add("geodesic", help="joining curve between two subspaces")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--at", type=float, action="append",
                   help="curve parameter(s) to evaluate (repeatable)")
    p.add_argument("--samples", type=int, help="evaluate at this many uniform parameters")

    p = add("triangle", help="triangle certification for three subspaces")
    p.add_argument("--l", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--certificate", action="store_true")

    p = add("decompose", help="convex decomposition of a (quasi)stochastic matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--signed", action="store_true",
                   help="signed decomposition of a quasistochastic matrix")

    p = add("fan-ky", help="diagonal vs singular values orbit membership")
    p.add_argument("--matrix", required=True)

    p = add("posdef-angles", help="hyperbolic angles between positive definite matrices")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("lidskii", help="eigenvalue-shift membership for Hermitian matrices")
    p.add_argument("--x", required=True)
    p.add_argument("--z", required=True)

    p = add("ball-angles", help="hyperbolic angles on the symmetric operator ball")
    p.add_argument("--t", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--norm", help="also report the distance under this norm")

    p = add("fuzz", help="seeded property-check trials")
    p.add_argument("--space", required=True, choices=harness.SPACES)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--norms", default="l1,l2,linf,kyfan2")

    return parser


def _run(args) -> tuple[int, dict, dict]:
    """Execute one subcommand; returns (exit code, result, tolerances)."""
    tolerances = {"boundary": args.tol}
    cmd = args.command

    if cmd == "angles":
        l = Subspace.from_spanning(_load_matrix(args.left))
        r = Subspace.from_spanning(_load_matrix(args.right))
        ang = subspaces.jordan_angles(l, r)
        result = {"angles": _angles_out(ang, args.degrees)}
        if args.degrees:
            result["unit"] = "degrees"
        return 0, result, tolerances

    if cmd == "distance":
        l = Subspace.from_spanning(_load_matrix(args.left))
        r = Subspace.from_spanning(_load_matrix(args.right))
        norm = NormSpec.builtin(args.norm)
        return 0, {"norm": norm.label(), "distance": metrics.distance(l, r, norm)}, tolerances

    if cmd == "geodesic":
        l = Subspace.from_spanning(_load_matrix(args.left))
        r = Subspace.from_spanning(_load_matrix(args.right))
        curve = metrics.hcurve_between(l, r)
        params = list(args.at or [])
        if args.samples:
            params += list(np.linspace(0.0, 1.0, args.samples))
        points = [
            {"s": s, "frame": harness._dump_matrix(metrics.hcurve_eval(curve, s).frame)}
            for s in params
        ]
        result = {"invariants": _angles_out(curve.a), "points": points}
        return 0, result, tolerances

    if cmd == "triangle":
        l = Subspace.from_spanning(_load_matrix(args.l))
        m = Subspace.from_spanning(_load_matrix(args.m))
        n = Subspace.from_spanning(_load_matrix(args.n))
        rep = metrics.triangle_check(l, m, n, want_certificate=args.certificate,
                                     boundary_tol=args.tol)
        result = {
            "phi": _angles_out(rep.phi),
            "psi": _angles_out(rep.psi),
            "theta": _angles_out(rep.theta),
            "inside": rep.inside,
            "best_slack": rep.best_slack,
            "witness": _perm_out(rep.witness) if rep.witness else None,
        }
        if rep.certificate is not None:
            result["certificate"] = _certificate_out(rep.certificate)
        return (0 if rep.inside else 1), result, tolerances

    if cmd == "decompose":
        a = _load_matrix(args.matrix)
        if args.signed:
            terms = weyl.quasistochastic_decompose(a)
        else:
            terms = weyl.birkhoff_decompose(a)
        rec = sum(wt * w.matrix() for wt, w in terms)
        err = float(np.max(np.abs(rec - np.real(a))))
        result = {
            "kind": "quasistochastic" if args.signed else "bistochastic",
            "terms": _certificate_out(terms),
            "reconstruction_error": err,
        }
        ok = err <= (1e-7 if args.signed else 1e-9)
        return (0 if ok else 1), result, tolerances

    if cmd == "fan-ky":
        a = _load_matrix(args.matrix)
        res = weyl.fan_ky_diagonal_check(np.real(a), boundary_tol=args.tol)
        result = {"inside": res.inside, "slack": res.slack}
        return (0 if res.inside else 1), result, tolerances

    if cmd == "posdef-angles":
        l = PosDefPoint(_load_matrix(args.left))
        r = PosDefPoint(_load_matrix(args.right))
        ang = noncompact.posdef_angles(l, r)
        return 0, {"angles": _angles_out(ang)}, tolerances

    if cmd == "lidskii":
        x = _load_matrix(args.x)
        z = _load_matrix(args.z)
        res = noncompact.lidskii_check(x, z, boundary_tol=args.tol)
        result = {"inside": res.inside, "slack": res.slack}
        return (0 if res.inside else 1), result, tolerances

    if cmd == "ball-angles":
        t = BallPoint(_load_matrix(args.t))
        s = BallPoint(_load_matrix(args.s))
        ang = noncompact.ball_angles(t, s)
        result = {"angles": _angles_out(ang)}
        if args.norm:
            norm = NormSpec.builtin(args.norm)
            result["norm"] = norm.label()
            result["distance"] = float(norm(ang))
        return 0, result, tolerances

    if cmd == "fuzz":
        config = harness.TrialConfig(
            space=args.space,
            p=args.p,
            q=args.q,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            tolerance=args.tol,
            norms=tuple(args.norms.split(",")),
        )
        report = harness.run_trials(config)
        print(f"fuzz wall time: {report.wall_time:.3f}s", file=sys.stderr)
        return (0 if report.all_passed else 1), report.to_dict(), {"check": config.tolerance}

    raise AssertionError(f"unhandled command {cmd!r}")


def dispatch(argv) -> int:
    """Run one CLI invocation; prints the JSON document, returns exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.tol is None:
        # fuzz checks default to the harness's tolerance, verdicts to the boundary one
        args.tol = harness.TrialConfig.tolerance if args.command == "fuzz" else weyl.BOUNDARY_TOL
    inputs = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    try:
        code, result, tolerances = _run(args)
    except (MatrixParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GrassGeoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "tolerances": tolerances,
        "version": __version__,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
