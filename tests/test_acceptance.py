"""Acceptance suite: the nine end-to-end guarantees, one test each.

Each test prints a single [ACCEPTANCE] pass line on success; a failed
assertion fails the test (and the line is not printed).
"""

import hashlib
import itertools
import json
import math

from conftest import cached_curve, cached_family, cached_instance
from ecseq.analysis import (exhaustive_allowed, family_correlation,
                            family_linear_complexity, lc_bound_check,
                            linear_complexity_cyclic)
from ecseq.cli import main as cli_main
from ecseq.curves import (INFINITY, CurveSearchSpec, admissible_t,
                          ordered_points, point_order, search_cyclic_curve,
                          special_traces)
from ecseq.family import family_sizes
from ecseq.gf2 import MAX_EXT_DEGREE, factorize, make_ext
from ecseq.places import (_build_place, count_place_orbits,
                          count_places_formula, enumerate_places_deg_d)
from ecseq.rrspace import rr_basis
from oracles import (brute_lc, enumerate_V, function_values, serre_failures,
                     sum_is_constant, translate_orbit)

# Every d=2 instance: even admissible traces give odd N = q+1+t, so
# gcd(2, N) = 1 exactly on the special traces {0, +/-sqrt(q) or sqrt(2q)}.
D2_INSTANCES = [(n, t) for n in range(2, 9) for t in special_traces(n)]
D3_INSTANCES = [(4, -1), (5, -1), (6, -1)]


def _ok(num: int, name: str, detail: str = "") -> None:
    print(f"[ACCEPTANCE] criterion {num} ({name}): PASS {detail}".rstrip())


def test_criterion_1_correlation_bound_d2():
    details = []
    for n, t in D2_INSTANCES:
        q = 1 << n
        assert (q + 1 + t) % 2 == 1  # the full gcd(2, N) = 1 sweep
        fam = cached_family(n, t, 2)
        rep = family_correlation(fam)  # exhaustive; asserts cor <= bound
        assert rep.mode == "exhaustive"
        assert rep.cor <= 5 * math.isqrt(4 * q) + abs(t)
        details.append(f"(n={n},t={t}):{rep.cor}<={rep.bound}")
    _ok(1, "d=2 correlation bound", f"{len(D2_INSTANCES)} instances")


def test_criterion_2_table3_reproduction():
    expected = {6: (8, 73, 63, 39), 7: (16, 145, 127, 57), 8: (16, 273, 255, 89)}
    lines = []
    for n, (t, N, M, reference) in expected.items():
        fam = cached_family(n, t, 2)
        assert (fam.N, fam.M) == (N, M)
        rep = family_correlation(fam)
        assert rep.cor <= rep.bound  # the pass criterion
        lines.append(f"q={1 << n}: observed {rep.cor} (reference {reference}, bound {rep.bound})")
    _ok(2, "length/size table reproduction", "; ".join(lines))


def test_criterion_3_d3_families():
    for n, t in D3_INSTANCES:
        q = 1 << n
        fam = cached_family(n, t, 3)
        assert fam.M == q * q - 1  # full family size
        assert fam.N == q
        sampled = None if exhaustive_allowed(fam) else 1_000_000
        rep = family_correlation(fam, sampled=sampled, seed=0)
        assert rep.cor <= 7 * math.isqrt(4 * q) + 1
        if sampled:
            assert rep.mode == "sampled" and rep.samples >= 1_000_000
    _ok(3, "d=3 families (length q, size q^2-1)")


def test_criterion_4_place_count_oracle():
    checked = 0
    for n in range(2, 7):
        q = 1 << n
        for t in admissible_t(n):
            curve, _ = cached_curve(n, t)
            for d in (2, 3):
                if n * d > MAX_EXT_DEGREE:
                    continue
                ext = make_ext(curve.ctx, d)
                formula = count_places_formula(q, t, d)
                assert formula == count_place_orbits(curve, ext, d), (n, t, d)
                checked += 1
    _ok(4, "place-count formula vs enumeration", f"{checked} instances")


def test_criterion_5_group_structure():
    translate_checked = 0
    for n in range(2, 9):
        q = 1 << n
        for t in admissible_t(n):
            curve, P = search_cyclic_curve(CurveSearchSpec(n, t))
            assert curve.N == q + 1 + t
            assert point_order(curve, P, factorize(curve.N)) == curve.N
            pts = ordered_points(curve, P)
            assert len(pts) == curve.N == len(set(pts))
            assert set(pts) == {INFINITY, *curve.iter_points()}
            if curve.N > 300:
                continue
            # N distinct translates, for the first d of a family the tool
            # builds (even-N curves at n in {7, 8} would need d=3 over 2^21+
            # elements and are excluded by the extension cap)
            for d in (2, 3):
                if (t, d) in family_sizes(n):
                    _, _, ext, place, _ = cached_instance(n, t, d)
                    orbits = {frozenset(translate_orbit(curve, place.orbit, j, P, ext))
                              for j in range(curve.N)}
                    assert len(orbits) == curve.N
                    translate_checked += 1
                    break
    _ok(5, "cyclic search / generator order / translates",
        f"{translate_checked} translate sweeps")


def _regular_places_scan(curve, ext, d, limit=None):
    """Regular degree-d places in deterministic (x, y) point order."""
    seen = set()
    out = []
    for R in curve.iter_points(ext):
        if R in seen:
            continue
        place = _build_place(curve, ext, R, d)
        if place is None:
            continue
        seen.update(place.orbit)
        out.append(place)
        if limit and len(out) >= limit:
            return out
    return out


def test_criterion_6_riemann_roch_dimension():
    full, sampled = 0, 0
    # exhaustive over every regular place at q <= 16
    for n in (2, 3, 4):
        for t in admissible_t(n):
            curve, _ = cached_curve(n, t)
            for d in (2, 3):
                ext = make_ext(curve.ctx, d)
                for orbit in enumerate_places_deg_d(curve, ext, d):
                    place = _build_place(curve, ext, orbit[0], d)
                    if place is None:
                        continue
                    space = rr_basis(curve, ext, place)  # raises if dim != d
                    assert len(space.full_basis) == d
                    full += 1
    # deterministic samples at q in {32, 64}
    for n, t in [(5, 0), (5, 8), (5, -1), (6, 0), (6, 8), (6, -1)]:
        curve, _ = cached_curve(n, t)
        for d in (2, 3):
            ext = make_ext(curve.ctx, d)
            for place in _regular_places_scan(curve, ext, d, limit=25):
                space = rr_basis(curve, ext, place)
                assert len(space.full_basis) == d
                sampled += 1
    # V contains no constants: non-constancy witness for every V basis
    # function of every pipeline instance at q <= 64
    for n, t, d in [(3, 4, 2), (3, 4, 3), (4, -4, 2), (4, -1, 3),
                    (5, 0, 2), (5, -1, 3), (6, 8, 2), (6, -1, 3)]:
        curve, P, ext, place, space = cached_instance(n, t, d)
        for vals in function_values(curve, space.V_basis):
            assert len(set(vals)) >= 2
    # sums of distinct family functions are nonconstant, exhaustively at q <= 16
    for n, t, d in [(3, 4, 2), (3, 4, 3), (4, -4, 2), (4, -1, 3), (4, -4, 3)]:
        curve, P, ext, place, space = cached_instance(n, t, d)
        vals = function_values(curve, enumerate_V(curve.ctx, space))
        for v1, v2 in itertools.combinations(vals, 2):
            assert not sum_is_constant(v1, v2)
    _ok(6, "dim L(Q) = d and V-constant separation",
        f"{full} exhaustive + {sampled} sampled places")


def test_criterion_7_linear_complexity():
    # exact lower bound over every generated family at n <= 8
    for (n, t), d in [((n, t), 2) for n, t in D2_INSTANCES] + \
                     [((n, t), 3) for n, t in D3_INSTANCES]:
        fam = cached_family(n, t, d)
        rep = family_linear_complexity(fam)  # raises below the bound
        assert lc_bound_check(rep.lc_min, fam.q, fam.t, fam.d)
    # gcd-based value == brute-force minimal recurrence at N = 13
    fam = cached_family(3, 4, 2)
    for s in fam.bits:
        assert linear_complexity_cyclic(s, fam.N) == brute_lc(s, fam.N)
    _ok(7, "linear-complexity bound and brute-force match")


def test_criterion_8_counting_identities():
    for (n, t), d in [((n, t), 2) for n, t in D2_INSTANCES] + \
                     [((n, t), 3) for n, t in D3_INSTANCES]:
        fam = cached_family(n, t, d)
        # exhaustive over every (i, u), by the oracle's own rotation
        assert serre_failures(fam) == [], (n, t, d)
    _ok(8, "proof counting identities")


# Family file sha256 values pinned from earlier releases: generation
# changes must leave the files byte-identical.
FAMILY_SHA256 = {
    (3, 4, 2): "50cee6330eb7f09691503565a9af8a7019758aff3b66d0c15ef94885d59915d9",
    (6, 8, 2): "9f6d68c610737aa80e380b6c7dc4b146f5910255e68250dbb941de13ee3ae588",
    # ordinary model (odd t) on the Tr(a2) = 1 branch of the sweep
    (5, 1, 3): "1db9ad4c0ab238c140ce4d1e6efb213bfa3e2e24cf0ba49e03a9f6195d2f8fb8",
}


def test_criterion_9_determinism(tmp_path):
    for (n, t, d), digest in FAMILY_SHA256.items():
        f1, f2 = tmp_path / f"a{n}.ecseq", tmp_path / f"b{n}.ecseq"
        for f in (f1, f2):
            assert cli_main(["generate", "--n", str(n), "--t", str(t),
                             "--d", str(d), "--out", str(f)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert hashlib.sha256(f1.read_bytes()).hexdigest() == digest
        r1, r2 = tmp_path / f"r1{n}.json", tmp_path / f"r2{n}.json"
        for r in (r1, r2):
            assert cli_main(["analyze", str(f1), "--out", str(r)]) == 0
        b1, b2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        b1.pop("timings"), b2.pop("timings")
        assert b1 == b2
    _ok(9, "byte-identical generation and analysis")
