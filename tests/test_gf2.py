"""Field arithmetic: irreducibility, axioms, trace, quadratics, embeddings."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecseq.gf2 import (MAX_DEGREE, MAX_EXT_DEGREE, MIN_DEGREE, FieldContext,
                       GF2Solver, ValidationError, clmul, elem_to_hex,
                       factorize, is_irreducible, linear_map, make_ext,
                       make_field, poly_gcd, poly_mod, smallest_irreducible,
                       span, walsh_hadamard)


# -- GF(2)[x] helpers against naive oracles -------------------------------

def naive_clmul(a: int, b: int) -> int:
    r = 0
    for i in range(a.bit_length()):
        for j in range(b.bit_length()):
            if (a >> i) & 1 and (b >> j) & 1:
                r ^= 1 << (i + j)
    return r


def naive_irreducible(p: int) -> bool:
    m = p.bit_length() - 1
    if m < 1:
        return False
    for f in range(2, 1 << (m // 2 + 1)):
        if f.bit_length() - 1 >= 1 and poly_mod(p, f) == 0:
            return False
    return True


@given(st.integers(0, 1 << 12), st.integers(0, 1 << 12))
def test_clmul_matches_naive(a, b):
    assert clmul(a, b) == naive_clmul(a, b)


def test_irreducibility_matches_trial_division():
    rng = random.Random(0)
    for p in range(2, 1 << 9):
        assert is_irreducible(p) == naive_irreducible(p), bin(p)
    for _ in range(50):
        p = rng.randrange(1 << 10, 1 << 11)
        assert is_irreducible(p) == naive_irreducible(p), bin(p)


def test_smallest_irreducible_is_minimal():
    for m in range(2, 9):
        p = smallest_irreducible(m)
        assert p.bit_length() - 1 == m and naive_irreducible(p)
        for smaller in range(1 << m, p):
            assert not naive_irreducible(smaller)


def test_known_moduli():
    assert make_field(3).modulus == 0b1011        # x^3 + x + 1
    assert make_field(4).modulus == 0b10011       # x^4 + x + 1
    assert make_field(8).modulus == 0b100011011   # x^8 + x^4 + x^3 + x + 1


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(257) == {257: 1}


def test_poly_gcd_divides_both():
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16)
        g = poly_gcd(a, b)
        assert poly_mod(a, g) == 0 and poly_mod(b, g) == 0


# -- field axioms ----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_axioms_exhaustive(n):
    f = make_field(n)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == f.mul(b, a)
            if b:
                assert f.mul(f.div(a, b), b) == a
            for c in f.elements():
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.mul(f.sqrt(a), f.sqrt(a)) == a


@settings(max_examples=200)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_axioms_gf256(a, b, c):
    f = make_field(8)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_pow_and_order(n):
    f = make_field(n)
    rng = random.Random(n)
    for _ in range(50):
        a = rng.randrange(1, f.q)
        assert f.pow(a, f.q - 1) == 1
        e = rng.randrange(-10, 40)
        r = 1
        for _ in range(abs(e)):
            r = f.mul(r, a)
        if e < 0:
            r = f.inv(r)
        assert f.pow(a, e) == r


# -- trace ------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_trace_properties(n):
    f = make_field(n)
    def slow_trace(a):
        acc, t = a, a
        for _ in range(n - 1):
            t = f.mul(t, t)
            acc ^= t
        return acc
    ones = 0
    for a in f.elements():
        tr = f.trace(a)
        assert tr == slow_trace(a)
        assert tr == f.trace(f.mul(a, a))  # Tr(a^2) = Tr(a)
        ones += tr
    assert ones == f.q // 2  # balanced


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_trace_agreements_matches_direct_count(n):
    # the two Boolean functions the curve search transforms: Tr(1/y) with
    # 0 -> 0, and Tr(w*x^3) for a few w
    f = make_field(n)
    rng = random.Random(n)
    funcs = [[f.trace(f.inv(y)) if y else 0 for y in f.elements()]]
    for w in (1, *rng.sample(range(2, f.q), 2)):
        funcs.append([f.trace(f.mul(w, f.pow(x, 3))) for x in f.elements()])
    for bits in funcs:
        want = [sum(bits[x] == f.trace(f.mul(c, x)) for x in f.elements())
                for c in f.elements()]
        assert f.trace_agreements(bits) == want


def naive_walsh_hadamard(v: list[int]) -> list[int]:
    return [sum(x if (c & k).bit_count() % 2 == 0 else -x for k, x in enumerate(v))
            for c in range(len(v))]


@pytest.mark.parametrize("L", [1 << k for k in range(9)])
def test_walsh_hadamard_matches_naive_sum(L):
    # signed entries, and ints packing 16-bit lanes: the transform is linear,
    # so a packed vector transforms to its lanes' transforms, packed
    rng = random.Random(L)
    lanes = [[rng.randrange(-300, 300) for _ in range(L)] for _ in range(5)]
    for v in lanes[:2]:
        got = list(v)
        walsh_hadamard(got)
        assert got == naive_walsh_hadamard(v)
    packed = [sum(lane[x] << 16 * k for k, lane in enumerate(lanes)) for x in range(L)]
    walsh_hadamard(packed)
    assert packed == [sum(w << 16 * k for k, w in enumerate(col))
                      for col in zip(*map(naive_walsh_hadamard, lanes))]


# -- quadratic solver ---------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solve_quadratic_exhaustive(n):
    f = make_field(n)
    for c in f.elements():
        for u in f.elements():
            got = f.solve_quadratic(c, u)
            want = tuple(sorted(y for y in f.elements()
                                if f.mul(y, y) ^ f.mul(c, y) == u))
            assert got == want


def test_solve_quadratic_random_gf256():
    f = make_field(8)
    rng = random.Random(2)
    for _ in range(200):
        c, u = rng.randrange(f.q), rng.randrange(f.q)
        for y in f.solve_quadratic(c, u):
            assert f.mul(y, y) ^ f.mul(c, y) == u
        if c and f.trace(f.div(u, f.mul(c, c))) == 0:
            assert len(f.solve_quadratic(c, u)) == 2


# -- GF(2) linear solver --------------------------------------------------------

def test_gf2solver_random_systems():
    rng = random.Random(3)
    for _ in range(100):
        cols = [rng.randrange(1 << 8) for _ in range(rng.randrange(1, 10))]
        solver = GF2Solver(cols)
        w = 0
        pick = rng.randrange(1 << len(cols))
        for j, c in enumerate(cols):
            if (pick >> j) & 1:
                w ^= c
        z = solver.lookup(8)(w)
        acc = 0
        for j, c in enumerate(cols):
            if (z >> j) & 1:
                acc ^= c
        assert acc == w
        for combo in solver.null_combos:
            acc = 0
            for j, c in enumerate(cols):
                if (combo >> j) & 1:
                    acc ^= c
            assert acc == 0 and combo != 0


def test_span_and_linear_map_match_per_bit_loop():
    rng = random.Random(13)
    for k in range(10):
        for _ in range(5):
            images = [rng.randrange(1 << 12) for _ in range(k)]
            naive = []
            for a in range(1 << k):
                acc = 0
                for i in range(k):
                    if (a >> i) & 1:
                        acc ^= images[i]
                naive.append(acc)
            assert span(images) == naive
            f = linear_map(images)
            assert [f(a) for a in range(1 << k)] == naive


# -- extension fields and embeddings ----------------------------------------------

@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (6, 2)])
def test_embedding_is_field_homomorphism(n, d):
    base = make_field(n)
    ext = make_ext(base, d)
    rng = random.Random(n * 10 + d)
    pairs = ([(a, b) for a in base.elements() for b in base.elements()]
             if base.q <= 16 else
             [(rng.randrange(base.q), rng.randrange(base.q)) for _ in range(300)])
    for a, b in pairs:
        assert ext.embed(a ^ b) == ext.embed(a) ^ ext.embed(b)
        assert ext.embed(base.mul(a, b)) == ext.mul(ext.embed(a), ext.embed(b))
    assert ext.embed(0) == 0 and ext.embed(1) == 1
    for a in list(base.elements())[:64]:
        e = ext.embed(a)
        assert ext.decode(e) == a
        assert ext.frobenius_q(e) == e  # fixed by the q-power Frobenius


def test_make_ext_embeds_the_given_base_field():
    # x^4 + x^3 + 1 is irreducible but not make_field(4)'s x^4 + x + 1
    base = FieldContext(0b11001)
    ext = make_ext(base, 2)
    assert ext.base is base and base.modulus != make_field(4).modulus
    for a in base.elements():
        for b in base.elements():
            assert ext.embed(a ^ b) == ext.embed(a) ^ ext.embed(b)
            assert ext.embed(base.mul(a, b)) == ext.mul(ext.embed(a), ext.embed(b))
    assert ext.embed(1) == 1


def test_embed_image_is_smallest_root_of_base_modulus():
    # every (n, d) the cap admits: scan the whole subfield (the kernel of
    # a -> a^q + a) for the roots of the base modulus
    for n in range(MIN_DEGREE, MAX_DEGREE + 1):
        base = make_field(n)
        for d in range(1, MAX_EXT_DEGREE // n + 1):
            ext = make_ext(base, d)
            cols = [ext.frobenius_q(1 << i) ^ (1 << i) for i in range(ext.n)]
            subfield = [0]
            for b in GF2Solver(cols).null_combos:
                subfield += [e ^ b for e in subfield]
            roots = []
            for e in subfield:
                acc = 0
                for i in range(n, -1, -1):
                    acc = ext.mul(acc, e) ^ ((base.modulus >> i) & 1)
                if acc == 0:
                    roots.append(e)
            assert len(roots) == n and ext.embed_image == min(roots), (n, d)


def test_frobenius_q_order():
    ext = make_ext(make_field(3), 3)
    rng = random.Random(8)
    for _ in range(100):
        a = rng.randrange(ext.q)
        b = a
        for _ in range(3):
            b = ext.frobenius_q(b)
        assert b == a  # Frobenius has order d


def test_decode_rejects_outside_subfield():
    ext = make_ext(make_field(3), 2)
    outside = [e for e in ext.elements() if ext.frobenius_q(e) != e]
    with pytest.raises(ValueError):
        ext.decode(outside[0])


def test_make_field_range():
    with pytest.raises(ValidationError):
        make_field(1)
    with pytest.raises(ValidationError):
        make_field(13)
    for n, d in [(12, 3), (12, 2), (7, 3)]:  # q^d = 2^36, 2^24, 2^21 over the cap
        with pytest.raises(ValidationError):
            make_ext(make_field(n), d)


# (10, 2) is the largest extension the cap admits: q^d = 2^20
@pytest.mark.parametrize("n,d", [(n, 1) for n in range(2, 13)]
                         + [(8, 2), (4, 4), (10, 2), (5, 3), (6, 3)])
def test_table_arithmetic_matches_clmul_reference(n, d):
    # the carry-less extension against the table-backed field of the same
    # modulus (same integer coding); at d = 1 that is make_field(n), whose
    # tables are checked against clmul
    ext = make_ext(make_field(n), d)
    tab = make_field(n) if d == 1 else FieldContext(ext.modulus)
    assert tab.modulus == ext.modulus
    rng = random.Random(n * 100 + d)
    for _ in range(300):
        a, b = rng.randrange(tab.q), rng.randrange(1, tab.q)
        e = rng.randrange(-40, 40)
        assert tab.mul(a, b) == poly_mod(clmul(a, b), tab.modulus) == ext.mul(a, b)
        assert poly_mod(clmul(b, tab.inv(b)), tab.modulus) == 1
        assert ext.inv(b) == tab.inv(b)
        assert ext.pow(b, e) == tab.pow(b, e) and ext.pow(a, abs(e)) == tab.pow(a, abs(e))
        assert ext.sqrt(a) == tab.sqrt(a)
        assert ext.frobenius_q(a) == tab.pow(a, 1 << n)
        c = rng.choice((0, b))
        assert ext.solve_quadratic(c, a) == tab.solve_quadratic(c, a)
    if tab.q <= 1 << 12:
        assert all(ext.inv(b) == tab.inv(b) for b in range(1, tab.q))


@pytest.mark.parametrize("n", range(2, 13))
def test_tables_match_clmul_rebuild(n):
    f = make_field(n)
    order = f.q - 1
    gamma = f._exp[1]
    # gamma is the smallest primitive element: g generates iff gcd(log g, q-1) = 1
    assert all(math.gcd(f._log[g], order) > 1 for g in range(2, gamma))
    assert math.gcd(f._log[gamma], order) == 1
    acc = 1
    for i in range(order):
        assert f._exp[i] == acc and f._log[acc] == i
        acc = poly_mod(clmul(acc, gamma), f.modulus)
    assert acc == 1 and len(f._exp) == order and f._log[0] is None


def test_hex_roundtrip():
    for a in (0, 1, 0x1b, 255, 12345):
        assert int(elem_to_hex(a), 16) == a
