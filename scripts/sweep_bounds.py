#!/usr/bin/env python3
"""End-to-end bound sweep: every admissible (n, t, d) pair at desk scale.

For each instance the full pipeline runs, the family passes through the
ECSEQ v1 bytes and their checks, and the correlation bound, the Serre-form
counting identities and the linear-complexity bound are hard-asserted.  A
nonzero exit means a bound failed somewhere (which would falsify the
construction, not just a test).

Usage: python3 scripts/sweep_bounds.py [--max-n 6]
"""

import argparse
import time

from ecseq import build_instance, family_correlation, family_linear_complexity, gen_family
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
            curve, P, ext, place, space = build_instance(n, t, d)
            fam = parse_family(format_family(gen_family(curve, P, space, ext)))
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
