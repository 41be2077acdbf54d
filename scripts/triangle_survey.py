#!/usr/bin/env python3
"""Survey triangle-certification slacks on random Grassmannian triples.

Draws random triples of p-dimensional subspaces, runs the orbit-polytope
triangle certification on each, and prints a small histogram of the
slack.  A tight concentration of slack near zero means many triples sit
close to the boundary of the inclusion, which is where roundoff would
first show.

Example:
    python3 scripts/triangle_survey.py --p 3 --q 4 --trials 2000 --seed 1
"""

import argparse
import sys

import numpy as np

from grassgeo import metrics
from grassgeo.harness import random_subspace, trial_rng


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--q", type=int, default=4)
    ap.add_argument("--field", choices=("real", "complex"), default="real")
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    slacks = np.empty(args.trials)
    violations = 0
    for trial in range(args.trials):
        rng = trial_rng(args.seed, trial)
        l = random_subspace(args.p, args.q, args.field, rng)
        m = random_subspace(args.p, args.q, args.field, rng)
        n = random_subspace(args.p, args.q, args.field, rng)
        rep = metrics.triangle_check(l, m, n)
        slacks[trial] = rep.best_slack
        if not rep.inside:
            violations += 1
            print(f"trial {trial}: OUTSIDE, slack {rep.best_slack:+.3e}")

    print(f"{args.trials} triples, p={args.p}, q={args.q}, {args.field}")
    print(f"violations: {violations}")
    print(f"slack min {slacks.min():+.3e}  median {np.median(slacks):+.3e}"
          f"  max {slacks.max():+.3e}")

    lo, hi = slacks.min(), slacks.max()
    edges = np.linspace(lo, hi, 13)
    counts, _ = np.histogram(slacks, edges)
    peak = max(counts.max(), 1)
    for c, a, b in zip(counts, edges, edges[1:]):
        bar = "#" * int(round(40 * c / peak))
        print(f"  [{a:+.3f}, {b:+.3f})  {c:5d} {bar}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
