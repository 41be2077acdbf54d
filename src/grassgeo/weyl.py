"""Hyperoctahedral and symmetric group orbit polytopes.

Membership of a point in the convex hull of the orbit of a vector under
signed permutations (or plain permutations), with optional convex-
combination certificates of at most p + 1 orbit points; Birkhoff
decomposition of bistochastic matrices and its signed analogue for
quasistochastic matrices; and the diagonal-vs-singular-values check.

Membership criteria:
  * signed group: sum of the k largest |x| entries bounded by the sum of
    the k largest psi entries, for every k (weak absolute majorization);
  * permutation group: classical majorization (partial-sum inequalities
    plus total-sum equality).
Certificates are built at any p by one walk down the faces of the orbit
polytope (`_face_walk`); only the vertex LP oracle (`vertex_lp_membership`,
which cross-validates the criteria in the test suite) enumerates the
group, capped at p <= 5; only its `linprog` loads scipy.optimize, since
`birkhoff_decompose` repairs one perfect matching by augmenting paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernel
from .errors import CapabilityError, DimensionMismatchError

BOUNDARY_TOL = 1e-9
BISTOCHASTIC_TOL = 1e-9  # largest row or column sum deviation from 1
QUASISTOCHASTIC_TOL = 1e-12  # largest absolute row or column sum excess over 1
ENUMERATION_CAP = 5  # exact vertex enumeration bound (2^p * p! vertices)


@dataclass(frozen=True)
class SignedPermutation:
    """Element of the hyperoctahedral group: w(x)_i = signs[i] * x[perm[i]].

    The constructor checks its input and stores tuples of Python ints.  The
    elements `weyl` builds itself are valid by construction and skip the
    check (`_trusted`): it would be about a third of the cost of a p = 16
    Birkhoff decomposition.
    """

    perm: tuple
    signs: tuple

    def __post_init__(self):
        p = len(self.perm)
        if sorted(self.perm) != list(range(p)):
            raise ValueError(f"not a permutation of 0..{p - 1}: {self.perm}")
        if len(self.signs) != p or not set(self.signs) <= {1, -1}:
            raise ValueError(f"signs must be +/-1 of length {p}: {self.signs}")
        object.__setattr__(self, "perm", tuple(map(int, self.perm)))
        object.__setattr__(self, "signs", tuple(map(int, self.signs)))

    @property
    def size(self) -> int:
        return len(self.perm)

    @classmethod
    def _trusted(cls, perm: tuple, signs: tuple) -> "SignedPermutation":
        """Element from tuples of Python ints known to be valid, unchecked."""
        w = object.__new__(cls)
        object.__setattr__(w, "perm", perm)
        object.__setattr__(w, "signs", signs)
        return w

    @classmethod
    def identity(cls, p: int) -> "SignedPermutation":
        return cls._trusted(tuple(range(p)), (1,) * p)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return np.asarray(self.signs) * x[list(self.perm)]

    def matrix(self) -> np.ndarray:
        p = self.size
        m = np.zeros((p, p))
        m[np.arange(p), self.perm] = self.signs
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
    return perms, signs


def orbit_matrix(x: np.ndarray, signed: bool = True) -> np.ndarray:
    """Stack of w(x) over the whole group, one row per element."""
    x = np.asarray(x, dtype=float)
    perms, signs = _orbit_index(len(x), signed)
    return signs * x[perms]


@dataclass(frozen=True)
class MembershipResult:
    """Verdict of an orbit-polytope membership query.

    `slack` is the tightest margin over the defining inequalities
    (negative means violated by that amount).  `certificate`, when present,
    is a list of at most p + 1 (weight, SignedPermutation) pairs whose
    convex combination of orbit points reconstructs the query.
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
    group psi must be nonnegative.  Certificates work at any p, with at
    most p + 1 terms (p for the permutation group); for x inside only by
    `boundary_tol` they rebuild x up to that violation.
    """
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if x.shape != psi.shape or x.ndim != 1 or x.size == 0:
        raise DimensionMismatchError(f"need equal nonempty lengths, got {x.shape} vs {psi.shape}")
    if not (np.isfinite(x).all() and np.isfinite(psi).all()):
        raise ValueError("x and psi must be finite")
    if group not in ("signed", "permutation"):
        raise ValueError(f"unknown group {group!r}")
    signed = group == "signed"
    if signed and np.any(psi < 0):
        raise ValueError("psi must be nonnegative for the signed group")
    slack = majorization_slack(x, psi, signed)
    inside = slack >= -boundary_tol
    certificate = None
    if want_certificate and inside:
        certificate = _face_walk(x, psi, signed)
    return MembershipResult(inside=inside, slack=slack, certificate=certificate)


def _face_walk(x: np.ndarray, psi: np.ndarray, signed: bool):
    """Certificate for x in the orbit hull of psi, walking down faces.

    y, the entries of x sorted decreasing (signed: of |x|, signs set aside),
    is paired with psi sorted decreasing (Yasutake et al., ISAAC 2011,
    extended to signs).  The face is a list of runs whose within-run prefix
    sums of y already equal psi's: runs before `free` are closed and hold a
    permutation of their psi run, the run from `free` on (signed only) is
    open and holds a signed permutation of it.  The vertex v with closed
    runs reversed and the open run at -psi makes y - v ordered like y, so
    y + mu (y - v) stays on the face until a prefix sum reaches psi's; then
    y = t v + (1 - t) y' with t = mu / (1 + mu) and that run splits.  Each
    step splits a run: at most p + 1 terms (p for permutations).  Negative
    gaps, left by a boundary tolerance, count as tight.

    Only the sorts use numpy; the walk runs on Python lists, because at the
    sizes served (p <= 16 or so) a numpy call costs more than the arithmetic
    of a whole step.  Prefix sums are sequential, as `np.cumsum`'s are.
    """
    p = len(x)
    sx = np.where(x < 0, -1, 1) if signed else np.ones(p, dtype=int)
    ix = np.argsort(-sx * x, kind="stable")
    ip = np.argsort(-psi, kind="stable")
    inv = np.argsort(ix).tolist()
    y, ps = (sx * x)[ix].tolist(), psi[ip].tolist()
    ip, sx = ip.tolist(), sx.tolist()
    start, end = [0] * p, [p - 1] * p  # bounds of each run
    free = 0 if signed else p
    terms, rest = [], 1.0
    while True:
        perm = [start[i] + end[i] - i if i < free else i for i in range(p)]
        vertex = ([ip[perm[i]] for i in inv], [s if i < free else -s for s, i in zip(sx, inv)])
        d = [y[i] - ps[j] if i < free else y[i] + ps[j] for i, j in enumerate(perm)]
        g = [b - a for a, b in zip(y, ps)]
        # growth and gap of every prefix sum inside its run
        cd, cg = list(itertools.accumulate(d)), list(itertools.accumulate(g))
        k, mu = -1, np.inf
        for i, s in enumerate(start):
            growth = cd[i] - (cd[s] - d[s])
            if growth > 0 and (end[i] > i or i >= free):
                ratio = max(cg[i] - (cg[s] - g[s]), 0.0) / growth
                if ratio < mu:
                    k, mu = i, ratio
        if k < 0:
            break
        t = mu / (1 + mu)
        if t > 0:
            terms.append((rest * t, vertex))
        rest *= 1 - t
        y = [a + mu * b for a, b in zip(y, d)]
        start[k + 1:end[k] + 1] = [k + 1] * (end[k] - k)
        end[start[k]:k + 1] = [k] * (k + 1 - start[k])
        free = max(free, k + 1)
    terms.append((rest, vertex))
    return [(wt, SignedPermutation._trusted(tuple(perm), tuple(signs))) for wt, (perm, signs) in terms]


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use to keep it off the import path."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def vertex_lp_membership(x, psi, group: str = "signed") -> bool:
    """Brute-force membership oracle by LP over the enumerated orbit."""
    x = np.asarray(x, dtype=float)
    verts = orbit_matrix(psi, group == "signed")
    g = len(verts)
    res = linprog(np.zeros(g), A_eq=np.vstack([verts.T, np.ones((1, g))]),
                  b_eq=np.append(x, 1.0), bounds=(0, None), method="highs")
    return bool(res.success)


# ---------------------------------------------------------------------------
# decompositions


def _check_decomposable(a, signed: bool) -> np.ndarray:
    """Float `a` once nonempty, square, finite and bistochastic, or (signed) quasistochastic."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatchError(f"expected nonempty square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if signed:
        rows = np.abs(a).sum(axis=1)
        cols = np.abs(a).sum(axis=0)
        if np.max(rows) > 1 + QUASISTOCHASTIC_TOL or np.max(cols) > 1 + QUASISTOCHASTIC_TOL:
            raise ValueError(
                "matrix is not quasistochastic "
                f"(worst absolute row sum {np.max(rows):.12f}, column sum {np.max(cols):.12f})"
            )
        return a
    worst_row = float(np.max(np.abs(a.sum(axis=1) - 1.0)))
    worst_col = float(np.max(np.abs(a.sum(axis=0) - 1.0)))
    if np.min(a) < -1e-12 or worst_row > BISTOCHASTIC_TOL or worst_col > BISTOCHASTIC_TOL:
        raise ValueError(
            "matrix is not bistochastic "
            f"(min entry {np.min(a):.3e}, worst row-sum deviation {worst_row:.3e}, "
            f"worst column-sum deviation {worst_col:.3e})"
        )
    return a


def _augment(support, match, owner, row) -> bool:
    """Match free `row` by one breadth-first augmenting path over `support`; False if none."""
    came, queue = {}, [row]  # came: column -> row it was reached from
    for i in queue:
        for j in support[i]:
            if j not in came:
                came[j] = i
                if owner[j] is None:
                    while j is not None:
                        i = came[j]
                        owner[j], match[i], j = i, j, match[i]
                    return True
                queue.append(owner[j])
    return False


def birkhoff_decompose(a: np.ndarray):
    """Write a bistochastic matrix as a convex combination of permutations.

    Returns a list of (weight, SignedPermutation with all-plus signs); at
    most (p-1)^2 + 1 terms.  The standard constructive proof: repeatedly
    find a perfect matching on the positive support and subtract the
    smallest matched entry.  Each step empties at least one entry, so the
    term count is set by the support of `a`.  One matching is kept (`match`
    row -> column, `owner` column -> row, on Python lists): a step unmatches
    the rows whose entry it emptied and `_augment` repairs each, about once.
    """
    a = _check_decomposable(a, signed=False)
    p = a.shape[0]
    rem = np.clip(a, 0.0, None).tolist()
    # entries at or below 1e-14 are rounding left by earlier subtractions;
    # repairs try large entries first, which shortens quasistochastic expansions
    support = [[j for j in sorted(range(p), key=r.__getitem__)[::-1] if r[j] > 1e-14] for r in rem]
    match, owner, free, terms = [None] * p, [None] * p, range(p), []
    plus = (1,) * p
    for _ in range((p - 1) ** 2 + 1):
        if not all(_augment(support, match, owner, i) for i in free):
            break  # no perfect matching on the support
        weight = min(map(list.__getitem__, rem, match))
        terms.append((weight, SignedPermutation._trusted(tuple(match), plus)))
        free = []
        for i, (r, j) in enumerate(zip(rem, match)):
            r[j] -= weight
            if r[j] <= 1e-14:
                free.append(i)
                support[i].remove(j)
                match[i] = owner[j] = None
    return terms


def quasistochastic_decompose(a: np.ndarray):
    """Convex combination of signed permutation matrices equal to `a`.

    Requires absolute row and column sums <= 1.  |a| is raised greedily to a
    bistochastic b (at most 2p - 1 fills) and expanded by `birkhoff_decompose`.
    On each permutation the ratios r = a_ij / b_ij in [-1, 1] are the average
    over thresholds t in [0, 1] of the sign vectors [r > 2t - 1], of which at
    most p + 1 differ: at most ((p-1)^2 + 1)(p + 1) terms.
    """
    a = _check_decomposable(a, signed=True)
    b = np.abs(a)
    col_gap = np.clip(1 - b.sum(axis=0), 0, None)
    for i, row_gap in enumerate(np.clip(1 - b.sum(axis=1), 0, None)):
        # row i takes the column gaps in order until its own gap is filled
        fill = np.diff(np.minimum(np.cumsum(col_gap), row_gap), prepend=0.0)
        b[i] += fill
        col_gap -= fill
    terms, al, bl = [], a.tolist(), b.tolist()
    for weight, w in birkhoff_decompose(b):
        match = w.perm
        u = [(1 + min(max(r[j] / s[j], -1.0), 1.0)) / 2 for r, s, j in zip(al, bl, match)]
        cuts = sorted({0.0, 1.0, *u})
        for lo, hi in zip(cuts, cuts[1:]):
            signs = tuple(1 if x > lo else -1 for x in u)
            terms.append((weight * (hi - lo), SignedPermutation._trusted(match, signs)))
    return terms


def fan_ky_diagonal_check(a: np.ndarray, boundary_tol: float = BOUNDARY_TOL) -> MembershipResult:
    """Diagonal of a real p x q matrix against the orbit hull of its singular values."""
    a = kernel._check_finite(np.asarray(a, dtype=float))
    p, q = a.shape
    if p > q:
        raise DimensionMismatchError(f"expected p <= q, got {a.shape}")
    diag = np.diagonal(a).copy()
    sigma = kernel.singular_values(a)[:p]
    return orbit_membership(diag, sigma, "signed", boundary_tol=boundary_tol)
