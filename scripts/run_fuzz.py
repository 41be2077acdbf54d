#!/usr/bin/env python3
"""Run the seeded property-check trials over every space and print a summary.

Example:
    python3 scripts/run_fuzz.py --trials 200 --seed 7
    python3 scripts/run_fuzz.py --space ball --trials 1000 --seed 7 --json out.json
"""

import argparse
import json
import sys

from grassgeo import harness


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--space", choices=harness.SPACES, default=None,
                    help="restrict to one space (default: all)")
    defaults = harness.TrialConfig
    ap.add_argument("--p", type=int, default=defaults.p)
    ap.add_argument("--q", type=int, default=defaults.q)
    ap.add_argument("--n", type=int, default=defaults.n)
    ap.add_argument("--trials", type=int, default=defaults.trials)
    ap.add_argument("--seed", type=int, default=defaults.seed)
    ap.add_argument("--tolerance", type=float, default=defaults.tolerance)
    ap.add_argument("--json", metavar="PATH", help="also dump all reports as JSON")
    args = ap.parse_args()

    spaces = [args.space] if args.space else list(harness.SPACES)
    reports = []
    failed = False
    for space in spaces:
        cfg = harness.TrialConfig(
            space=space, p=args.p, q=args.q, n=args.n,
            trials=args.trials, seed=args.seed, tolerance=args.tolerance,
        )
        report = harness.run_trials(cfg)
        reports.append(report)
        print(f"{space}  ({report.wall_time:.2f}s)")
        for name in sorted(report.checks):
            stats = report.checks[name]
            mark = "ok  " if stats.failed == 0 else "FAIL"
            print(f"  {mark} {name:32s} passed {stats.passed:5d}"
                  f"  failed {stats.failed:3d}  worst slack {stats.worst_slack:+.3e}")
        failed = failed or not report.all_passed

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
