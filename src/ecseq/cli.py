"""Command-line front end: generate / analyze / reproduce-table /
count-places / admissible.

Exit codes: 0 success, 2 validation failure, 3 bound-assertion failure,
4 I/O or format error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .analysis import (BoundViolationError, exhaustive_allowed,
                       family_correlation, family_linear_complexity)
from .curves import CurveSearchSpec, admissible_t, search_cyclic_curve, special_traces
from .family import (FormatError, build_family, family_sizes, parse_family,
                     require_family, write_family)
from .gf2 import MAX_EXT_DEGREE, ValidationError, make_ext, make_field
from .places import count_place_orbits, count_places_formula

# Published reference values, reported alongside our results but never
# asserted: the instances behind them (curve, place, generator) are not
# pinned anywhere, so observed correlations legitimately differ.
TABLE3_REFERENCE = {
    64: {"t": 8, "N": 73, "M": 63, "corr": 39},
    128: {"t": 16, "N": 145, "M": 127, "corr": 57},
    256: {"t": 16, "N": 273, "M": 255, "corr": 89},
    512: {"t": 32, "N": 545, "M": 511, "corr": 137},
    1024: {"t": 32, "N": 1057, "M": 1023, "corr": 191},
}
TABLE2_REFERENCE = {
    64: {"size": 63, "corr": 38},
    128: {"size": 127, "corr": 60},
    256: {"size": 255, "corr": 86},
    512: {"size": 511, "corr": 124},
    1024: {"size": 31, "corr": 184},
    2048: {"size": 63, "corr": 276},
    4096: {"size": 127, "corr": 416},
}


def _emit(obj, out_path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    n, t, d = args.n, args.t, args.d
    fam = build_family(n, t, d)
    out = args.out or f"ecseq_n{n}_t{t}_d{d}.ecseq"
    digest = hashlib.sha256(write_family(fam, out)).hexdigest()
    cv = fam.provenance["curve"]
    coeffs = ",".join(cv[k] for k in ("a1", "a2", "a3", "a4", "a6"))
    print(f"wrote {out}: N={fam.N} M={fam.M} curve=[{coeffs}] "
          f"generator={fam.provenance['generator']} sha256={digest}")
    return 0


def cmd_analyze(args) -> int:
    with open(args.family, "rb") as fh:
        data = fh.read()  # one read, so the digest names the bytes analysed
    fam = parse_family(data)
    timings = {}
    t0 = time.perf_counter()
    corr = family_correlation(fam, sampled=args.sampled, seed=args.seed)
    timings["correlation_s"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    lc = family_linear_complexity(fam)
    timings["linear_complexity_s"] = round(time.perf_counter() - t0, 3)
    bundle = {
        "family_file": args.family,
        "family_sha256": hashlib.sha256(data).hexdigest(),
        "config": {"n": fam.n, "t": fam.t, "d": fam.d, "N": fam.N, "M": fam.M},
        "correlation": corr.as_dict(),
        "linear_complexity": lc.as_dict(),
        "counting_identities_ok": corr.identities_ok,
        "timings": timings,
    }
    _emit(bundle, args.out)
    if not corr.identities_ok:
        raise BoundViolationError("counting identity check failed")
    return 0


def cmd_reproduce_table(args) -> int:
    if args.sampled < 1:  # checked before any row is built, as analyze checks it
        raise ValidationError(f"sampled probe count {args.sampled} is below 1")
    # Table 3: d = 2 at the largest even trace; Table 2: d = 3 at t = -1
    table3 = args.table == 3
    refs = TABLE3_REFERENCE if table3 else TABLE2_REFERENCE
    specs = [(n, special_traces(n)[-1], 2) if table3 else (n, -1, 3)
             for n in args.n_values or ([6, 7, 8] if table3 else [4, 5, 6])]
    for n, t, d in specs:  # refuse an unbuildable row before building the first
        require_family(n, t, d)
    rows = []
    for n, t, d in specs:
        q = 1 << n
        fam = build_family(n, t, d)
        sampled = None if exhaustive_allowed(fam) else args.sampled
        rep = family_correlation(fam, sampled=sampled, seed=args.seed)
        ref = refs.get(q, {})
        row = {"q": q, "t": t, "N": fam.N, "M": fam.M, "observed_cor": rep.cor,
               "bound": rep.bound, "mode": rep.mode, "reference_cor": ref.get("corr")}
        if not table3:
            row["reference_size"] = ref.get("size")
            row["note"] = ("reference used an unexplained subset"
                           if ref.get("size") not in (None, fam.M) else None)
        rows.append(row)
    _emit({"table": args.table, "rows": rows}, args.out)
    return 0


def cmd_count_places(args) -> int:
    CurveSearchSpec(args.n, args.t).validate()  # the instance must exist, as in generate
    if not 1 <= args.d <= MAX_EXT_DEGREE:  # beyond it B_d can outgrow what JSON prints
        raise ValidationError(f"d={args.d} outside [1, {MAX_EXT_DEGREE}]")
    q = 1 << args.n
    formula = count_places_formula(q, args.t, args.d)
    enumerated = None
    if args.verify:
        ext = make_ext(make_field(args.n), args.d)
        curve, _ = search_cyclic_curve(CurveSearchSpec(args.n, args.t))
        enumerated = count_place_orbits(curve, ext, args.d)
    consistent = enumerated in (None, formula)
    _emit({"d": args.d, "q": q, "t": args.t, "formula": formula,
           "enumerated": enumerated, "consistent": consistent}, args.out)
    if not consistent:
        raise BoundViolationError(
            f"place count mismatch: formula {formula} != enumerated {enumerated}")
    return 0


def cmd_admissible(args) -> int:
    sizes = family_sizes(args.n)
    rows = []
    for t in admissible_t(args.n):
        ds = [d for tt, d in sizes if tt == t]
        rows.append({"t": t, "N": (1 << args.n) + 1 + t, "d_choices": ds,
                     "family": "ordinary" if t % 2 else "supersingular"})
    _emit({"n": args.n, "q": 1 << args.n, "rows": rows}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ecseq",
        description="Binary sequence families with provably low correlation "
                    "from cyclic elliptic curves over GF(2^n).")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="run the full construction and write an ECSEQ file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="correlation / linear-complexity report for an ECSEQ file")
    a.add_argument("family")
    a.add_argument("--sampled", type=int, default=None, metavar="K")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out")
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("reproduce-table", help="rebuild published result tables at desk scale")
    r.add_argument("--table", type=int, required=True, choices=(2, 3))
    r.add_argument("--n", type=int, action="append", dest="n_values")
    r.add_argument("--sampled", type=int, default=1_000_000, metavar="K")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out")
    r.set_defaults(func=cmd_reproduce_table)

    c = sub.add_parser("count-places", help="degree-d place count, optionally verified by enumeration")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--verify", action="store_true")
    c.add_argument("--out")
    c.set_defaults(func=cmd_count_places)

    m = sub.add_parser("admissible", help="list admissible traces t and coprime degrees for n")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--out")
    m.set_defaults(func=cmd_admissible)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundViolationError as exc:
        print(f"bound assertion failed: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
