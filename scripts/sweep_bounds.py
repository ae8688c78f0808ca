#!/usr/bin/env python3
"""End-to-end bound sweep: every admissible (n, t, d) pair at desk scale.

For each instance the full pipeline runs, and the family passes through the
ECSEQ v1 bytes: parse_family builds it a second time and requires the same
bytes.  The correlation bound, the Serre-form counting identities and the
linear-complexity bound are hard-asserted.  A nonzero exit means a bound
failed somewhere (which would falsify the construction, not just a test).

Usage: python3 scripts/sweep_bounds.py [--max-n 6]
"""

import argparse
import time

from ecseq import build_family, family_correlation, family_linear_complexity
from ecseq.analysis import exhaustive_allowed
from ecseq.family import family_sizes, format_family, parse_family


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--sampled", type=int, default=200_000,
                    help="cross-correlation probes for families over the budget gate")
    args = ap.parse_args(argv)

    total = 0
    for n in range(2, args.max_n + 1):
        for t, d in family_sizes(n):
            t0 = time.perf_counter()
            fam = parse_family(format_family(build_family(n, t, d)))
            sampled = None if exhaustive_allowed(fam) else args.sampled
            corr = family_correlation(fam, sampled=sampled)
            assert corr.identities_ok, (n, t, d)
            lc = family_linear_complexity(fam)
            total += 1
            print(f"n={n} t={t:>3} d={d}  N={fam.N:>4} M={fam.M:>5}  "
                  f"cor={corr.cor:>4}/{corr.bound:<4} lc_min={lc.lc_min:>4}  "
                  f"[{corr.mode}] {time.perf_counter() - t0:.2f}s")
    print(f"\n{total} instances, all bounds hold")


if __name__ == "__main__":
    main()
