"""Hyperoctahedral and symmetric group orbit polytopes.

Membership of a point in the convex hull of the orbit of a vector under
signed permutations (or plain permutations), with optional convex-
combination certificates by exact vertex enumeration; Birkhoff
decomposition of bistochastic matrices and its signed analogue for
quasistochastic matrices; and the diagonal-vs-singular-values check.

Membership criteria:
  * signed group: sum of the k largest |x| entries bounded by the sum of
    the k largest psi entries, for every k (weak absolute majorization);
  * permutation group: classical majorization (partial-sum inequalities
    plus total-sum equality).
Both hold at any p; only certificates, the quasistochastic decomposition
and the vertex LP oracle (`vertex_lp_membership`, which cross-validates
the criteria in the test suite) enumerate the group, capped at p <= 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from .errors import CapabilityError, DimensionMismatchError

BOUNDARY_TOL = 1e-9
ENUMERATION_CAP = 5  # exact vertex enumeration bound (2^p * p! vertices)


@dataclass(frozen=True)
class SignedPermutation:
    """Element of the hyperoctahedral group: w(x)_i = signs[i] * x[perm[i]]."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        p = len(self.perm)
        if sorted(self.perm) != list(range(p)):
            raise ValueError(f"not a permutation of 0..{p - 1}: {self.perm}")
        if len(self.signs) != p or any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be +/-1 of length {p}: {self.signs}")

    @property
    def size(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, p: int) -> "SignedPermutation":
        return cls(tuple(range(p)), (1,) * p)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return np.asarray(self.signs) * x[list(self.perm)]

    def matrix(self) -> np.ndarray:
        p = self.size
        m = np.zeros((p, p))
        for i in range(p):
            m[i, self.perm[i]] = self.signs[i]
        return m


def enumerate_group(p: int, signed: bool = True):
    """All elements of W_p (or S_p if signed is False), deterministic order."""
    if p > (ENUMERATION_CAP if signed else ENUMERATION_CAP + 2):
        raise CapabilityError(f"refusing to enumerate the group for p = {p}")
    out = []
    for perm in itertools.permutations(range(p)):
        for signs in (itertools.product((1, -1), repeat=p) if signed else [(1,) * p]):
            out.append(SignedPermutation(perm, signs))
    return out


@lru_cache(maxsize=32)
def _orbit_index(p: int, signed: bool):
    """(perm array G x p, sign array G x p) spanning the group, cached."""
    elems = enumerate_group(p, signed)
    perms = np.array([e.perm for e in elems], dtype=int)
    signs = np.array([e.signs for e in elems], dtype=float)
    return elems, perms, signs


def orbit_matrix(x: np.ndarray, signed: bool = True) -> np.ndarray:
    """Stack of w(x) over the whole group, one row per element."""
    x = np.asarray(x, dtype=float)
    _, perms, signs = _orbit_index(len(x), signed)
    return signs * x[perms]


@dataclass(frozen=True)
class MembershipResult:
    """Verdict of an orbit-polytope membership query.

    `slack` is the tightest margin over the defining inequalities
    (negative means violated by that amount).  `certificate`, when present,
    is a list of (weight, SignedPermutation) whose convex combination of
    orbit points reconstructs the query.
    """

    inside: bool
    slack: float
    certificate: list | None = None


def majorization_slack(x: np.ndarray, psi: np.ndarray, signed: bool) -> float:
    """Tightest margin of the majorization inequalities for x vs psi."""
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if signed:
        xs = np.sort(np.abs(x))[::-1]
        ps = np.sort(np.abs(psi))[::-1]
        margins = np.cumsum(ps) - np.cumsum(xs)
        return float(np.min(margins))
    xs = np.sort(x)[::-1]
    ps = np.sort(psi)[::-1]
    margins = np.cumsum(ps) - np.cumsum(xs)
    partial = float(np.min(margins[:-1])) if len(x) > 1 else np.inf
    total = -abs(margins[-1])
    return float(min(partial, total))


def orbit_membership(
    x,
    psi,
    group: str = "signed",
    want_certificate: bool = False,
    boundary_tol: float = BOUNDARY_TOL,
) -> MembershipResult:
    """Is x in the convex hull of the group orbit of psi?

    `group` is "signed" (hyperoctahedral) or "permutation".  For the signed
    group psi must be nonnegative.  Certificates require p <= 5; a signed
    certificate for x inside only by `boundary_tol` rebuilds x shrunk onto
    the hull.
    """
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if x.shape != psi.shape or x.ndim != 1:
        raise DimensionMismatchError(f"length mismatch: {x.shape} vs {psi.shape}")
    if group not in ("signed", "permutation"):
        raise ValueError(f"unknown group {group!r}")
    signed = group == "signed"
    if signed and np.any(psi < 0):
        raise ValueError("psi must be nonnegative for the signed group")
    slack = majorization_slack(x, psi, signed)
    inside = slack >= -boundary_tol
    certificate = None
    if want_certificate and inside:
        p = len(x)
        if p > ENUMERATION_CAP:
            raise CapabilityError(
                f"certificates need vertex enumeration, capped at p = {ENUMERATION_CAP}"
            )
        certificate = _certificate(x, psi, signed)
    return MembershipResult(inside=inside, slack=slack, certificate=certificate)


def _certificate(x: np.ndarray, psi: np.ndarray, signed: bool):
    elems, _, _ = _orbit_index(len(x), signed)
    verts = orbit_matrix(psi, signed)  # G x p
    if signed:
        # inside by tolerance may be outside by roundoff: shrink onto the hull
        s_x = np.cumsum(np.sort(np.abs(x))[::-1])
        s_psi = np.cumsum(np.sort(psi)[::-1])
        pos = s_x > 0
        x = x * float(np.min(s_psi[pos] / s_x[pos], initial=1.0))
    # the LP's feasibility tolerance is absolute: solve at unit scale
    scale = float(np.max(np.abs(psi), initial=0.0))
    if scale > 0:
        verts, x = verts / scale, x / scale
    res = _convex_combination(verts, x)
    if res is None:
        return None
    return [(float(wt), elems[idx]) for idx, wt in res]


def _convex_combination(verts: np.ndarray, target: np.ndarray):
    """Weights of a convex combination of the rows of `verts` hitting `target`.

    Returns a list of (row index, weight) or None if infeasible.
    """
    g, p = verts.shape
    a_eq = np.vstack([verts.T, np.ones((1, g))])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(np.zeros(g), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        return None
    weights = res.x
    keep = weights > 1e-12
    weights = weights[keep] / weights[keep].sum()
    return list(zip(np.nonzero(keep)[0], weights))


def vertex_lp_membership(x, psi, group: str = "signed") -> bool:
    """Brute-force membership oracle by LP over the enumerated orbit."""
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    verts = orbit_matrix(psi, group == "signed")
    return _convex_combination(verts, x) is not None


def reconstruct_certificate(certificate, psi: np.ndarray) -> np.ndarray:
    """Point represented by a certificate: sum of weight * w(psi)."""
    psi = np.asarray(psi, dtype=float)
    out = np.zeros_like(psi)
    for weight, w in certificate:
        out = out + weight * w.apply(psi)
    return out


# ---------------------------------------------------------------------------
# decompositions


def _check_bistochastic(a: np.ndarray, tol: float = 1e-9):
    rows = a.sum(axis=1)
    cols = a.sum(axis=0)
    worst_row = float(np.max(np.abs(rows - 1.0)))
    worst_col = float(np.max(np.abs(cols - 1.0)))
    if np.min(a) < -1e-12 or worst_row > tol or worst_col > tol:
        raise ValueError(
            "matrix is not bistochastic "
            f"(min entry {np.min(a):.3e}, worst row-sum deviation {worst_row:.3e}, "
            f"worst column-sum deviation {worst_col:.3e})"
        )


def _perfect_matching(support: np.ndarray):
    """Perfect matching on a bipartite support graph by augmenting paths.

    support[i, j] truthy means row i may be matched to column j.  Returns
    match[i] = column of row i, or None if no perfect matching exists.
    """
    p = support.shape[0]
    match_col = [-1] * p  # column -> row

    def try_row(i, seen):
        for j in range(p):
            if support[i, j] and not seen[j]:
                seen[j] = True
                if match_col[j] < 0 or try_row(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    for i in range(p):
        if not try_row(i, [False] * p):
            return None
    match_row = [-1] * p
    for j, i in enumerate(match_col):
        match_row[i] = j
    return match_row


def birkhoff_decompose(a: np.ndarray, tol: float = 1e-9):
    """Write a bistochastic matrix as a convex combination of permutations.

    Returns a list of (weight, SignedPermutation with all-plus signs); at
    most (p-1)^2 + 1 terms.  The standard constructive proof: repeatedly
    find a perfect matching on the positive support and subtract the
    smallest matched entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {a.shape}")
    _check_bistochastic(a, tol)
    p = a.shape[0]
    rem = np.clip(a, 0.0, None).copy()
    terms = []
    total = 0.0
    for _ in range((p - 1) ** 2 + 1):
        if total >= 1.0 - 1e-12:
            break
        support = rem > 1e-12
        match = _perfect_matching(support)
        if match is None:
            break
        weight = float(min(rem[i, match[i]] for i in range(p)))
        perm = SignedPermutation(tuple(match), (1,) * p)
        # subtract weight at the matched positions
        for i in range(p):
            rem[i, match[i]] -= weight
        terms.append((weight, perm))
        total += weight
    return terms


def quasistochastic_decompose(a: np.ndarray, tol: float = 1e-12):
    """Convex combination of signed permutation matrices equal to `a`.

    Requires absolute row and column sums <= 1 and p <= 5 (vertex
    enumeration).  Solved as an LP feasibility problem over the group.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {a.shape}")
    p = a.shape[0]
    if p > ENUMERATION_CAP:
        raise CapabilityError(f"exact enumeration capped at p = {ENUMERATION_CAP}, got {p}")
    rows = np.abs(a).sum(axis=1)
    cols = np.abs(a).sum(axis=0)
    if np.max(rows) > 1 + tol or np.max(cols) > 1 + tol:
        raise ValueError(
            "matrix is not quasistochastic "
            f"(worst absolute row sum {np.max(rows):.12f}, column sum {np.max(cols):.12f})"
        )
    elems, _, _ = _orbit_index(p, True)
    verts = np.array([e.matrix().ravel() for e in elems])
    res = _convex_combination(verts, a.ravel())
    if res is None:
        raise ValueError("LP feasibility failed on a quasistochastic matrix")
    return [(float(wt), elems[idx]) for idx, wt in res]


def fan_ky_diagonal_check(a: np.ndarray, boundary_tol: float = BOUNDARY_TOL) -> MembershipResult:
    """Diagonal of a real p x q matrix against the orbit hull of its singular values."""
    from . import kernel

    a = np.asarray(a, dtype=float)
    p, q = a.shape
    if p > q:
        raise DimensionMismatchError(f"expected p <= q, got {a.shape}")
    diag = np.diagonal(a).copy()
    sigma = kernel.svd(a).singular_values[:p]
    return orbit_membership(diag, sigma, "signed", boundary_tol=boundary_tol)
