"""Degree-d places: counting formula vs enumeration, regularity, translation."""

import random

import pytest

from conftest import cached_curve, cached_instance
from ecseq.curves import INFINITY, Curve, Point, admissible_t
from ecseq.gf2 import ValidationError, make_ext, make_field
from ecseq.places import (count_place_orbits, count_places_formula,
                          enumerate_places_deg_d, find_place, frobenius_orbit,
                          frobenius_power_sums, moebius, point_frobenius)
from oracles import per_point_enumeration, translate_orbit


def test_moebius_values():
    assert [moebius(k) for k in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    # over the count-places --d range: the divisor sums of mu are [k = 1]
    for k in range(1, 21):
        assert sum(moebius(e) for e in range(1, k + 1) if k % e == 0) == (k == 1)


def test_power_sums_match_extension_point_counts():
    # N over GF(q^r) = q^r + 1 - S_r, verified by actual counting
    curve, _ = cached_curve(3, 4)
    q = 8
    s = frobenius_power_sums(q, curve.t, 3)
    for r in (2, 3):
        ext = make_ext(curve.ctx, r)
        assert 1 + sum(1 for _ in curve.iter_points(ext)) == q**r + 1 - s[r - 1]
    assert s[0] == -curve.t


def test_power_sums_reject_bad_trace():
    with pytest.raises(ValidationError):
        frobenius_power_sums(8, 7, 3)


@pytest.mark.parametrize("n,t,d,expected", [(3, 4, 2, 26), (3, 4, 3, 156)])
def test_place_count_pinned(n, t, d, expected):
    curve, _ = cached_curve(n, t)
    assert count_places_formula(1 << n, t, d) == expected
    ext = make_ext(curve.ctx, d)
    assert len(enumerate_places_deg_d(curve, ext, d)) == expected
    assert count_place_orbits(curve, ext, d) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_per_point_reference(n):
    for t in admissible_t(n):
        curve, _ = cached_curve(n, t)
        for d in (2, 3):
            ext = make_ext(curve.ctx, d)
            assert (enumerate_places_deg_d(curve, ext, d)
                    == per_point_enumeration(curve, ext, d)), (n, t, d)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_place_orbits_matches_enumeration(n):
    for t in admissible_t(n):
        curve, _ = cached_curve(n, t)
        for d in (2, 3):
            ext = make_ext(curve.ctx, d)
            assert (count_place_orbits(curve, ext, d)
                    == len(enumerate_places_deg_d(curve, ext, d))), (n, t, d)


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_on_general_weierstrass_models(n):
    # a1 and a3 both nonzero: c = a1*x + a3 vanishes at x = a3/a1, so the
    # fibre over it is one point (a leader only when d = 1)
    ctx = make_field(n)
    rng = random.Random(n)
    curves = []
    while len(curves) < 4:
        try:
            curves.append(Curve(ctx, *(rng.randrange(1, ctx.q) for _ in range(5))))
        except ValidationError:  # singular
            pass
    for curve in curves:
        for d in (1, 2, 3):
            ext = make_ext(ctx, d)
            orbits = enumerate_places_deg_d(curve, ext, d)
            assert orbits == [(INFINITY,)] * (d == 1) + per_point_enumeration(curve, ext, d)
            assert (count_place_orbits(curve, ext, d) == len(orbits)
                    == count_places_formula(ctx.q, curve.t, d)), (curve, d)


def test_place_count_formula_equals_enumeration_sweep():
    for n, d in [(3, 2), (4, 2), (4, 3)]:
        for t in admissible_t(n)[::3]:
            curve, _ = cached_curve(n, t)
            ext = make_ext(curve.ctx, d)
            assert (count_places_formula(1 << n, t, d)
                    == len(enumerate_places_deg_d(curve, ext, d))), (n, t, d)


def test_degree_one_count_is_point_count():
    assert count_places_formula(8, 4, 1) == 13
    assert count_places_formula(64, 8, 1) == 73
    for n, t in [(3, 4), (4, 0), (5, -1)]:
        curve, _ = cached_curve(n, t)
        ext = make_ext(curve.ctx, 1)
        orbits = enumerate_places_deg_d(curve, ext, 1)
        assert orbits[0] == (INFINITY,)
        assert (count_place_orbits(curve, ext, 1) == len(orbits) == curve.N
                == count_places_formula(1 << n, t, 1))


@pytest.mark.parametrize("n,t,d", [(3, 4, 2), (3, 4, 3), (4, 0, 2), (4, -1, 3)])
def test_find_place_is_regular(n, t, d):
    curve, P, ext, place, space = cached_instance(n, t, d)
    assert place.d == d and len(place.orbit) == d
    # orbit is the Frobenius orbit of the representative, points on the curve
    assert place.orbit == frobenius_orbit(ext, place.representative)
    for R in place.orbit:
        assert curve.on_curve(R, ext)
    # orbit and negated orbit are 2d distinct points
    negs = {curve.neg(R, ext) for R in place.orbit}
    assert len(negs | set(place.orbit)) == 2 * d
    # D(x) kills every orbit x-coordinate and has GF(q) coefficients
    assert len(place.dpoly) == d + 1 and place.dpoly[-1] == 1
    for R in place.orbit:
        acc = 0
        for c in reversed(place.dpoly):
            acc = ext.mul(acc, R.x) ^ ext.embed(c)
        assert acc == 0
    # D(x) has no rational root (regularity for the denominator)
    for x in curve.ctx.elements():
        acc = 0
        for c in reversed(place.dpoly):
            acc = curve.ctx.mul(acc, x) ^ c
        assert acc != 0


def test_find_place_gcd_gate():
    curve, _ = cached_curve(4, 1)  # N = 18, shares factors 2 and 3
    ext = make_ext(curve.ctx, 2)
    with pytest.raises(ValidationError):
        find_place(curve, ext, 2)


def test_translate_place_orbit_structure():
    curve, P, ext, place, space = cached_instance(3, 4, 2)
    seen = set()
    for j in range(curve.N):
        orbit = translate_orbit(curve, place.orbit, j, P, ext)
        # translated orbits are still Frobenius orbits of curve points
        assert orbit == frobenius_orbit(ext, orbit[0])
        for R in orbit:
            assert curve.on_curve(R, ext)
        seen.add(frozenset(orbit))
    assert len(seen) == curve.N  # N pairwise distinct translates
    assert translate_orbit(curve, place.orbit, 0, P, ext) == place.orbit
    assert translate_orbit(curve, place.orbit, curve.N, P, ext) == place.orbit


def test_point_frobenius_fixes_rational_points():
    curve, P, ext, place, space = cached_instance(3, 4, 2)
    Pe = Point(ext.embed(P.x), ext.embed(P.y))
    assert point_frobenius(ext, Pe) == Pe
