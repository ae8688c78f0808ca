"""Reference implementations that the tests check the pipeline against.

Each is as naive as it can be and independent of the kernel it checks:
correlations use their own rotation, points come from the curve equation
over all of GF(q)^2, and orbits from a point-by-point Frobenius walk.  The
one exception, counter_cross_transform, shares the cross sweep's transform
and checks only how each delay's lanes are counted.
"""

import math
import random
import sys
from array import array
from collections import Counter
from operator import xor

from ecseq.curves import INFINITY, Point, _sort_key, ordered_points
from ecseq.gf2 import span, walsh_hadamard
from ecseq.places import frobenius_orbit
from ecseq.rrspace import CurveFunction, eval_function


def rotate(b: int, u: int, N: int) -> int:
    """Cyclic right rotation: bit j is bit (j+u) mod N of b, for 0 <= u <= N."""
    return ((b >> u) | (b << N - u)) & ((1 << N) - 1)


def reflect(s: int, c: int, N: int) -> int:
    """Bit j is bit (c - j) mod N of s: its N bits reversed, then rotated."""
    return rotate(int(format(s, f"0{N}b")[::-1], 2), (N - 1 - c) % N, N)


def corr(a: int, b: int, u: int, N: int) -> int:
    """C_u(a, b) = sum_j (-1)^(a_j + b_{j+u}), for 0 <= u < N."""
    return N - 2 * (a ^ rotate(b, u, N)).bit_count()


def auto_report(fam, bound: int):
    """Row by row, the first row whose largest autocorrelation, or else its
    smallest, is out of bound gives the message naming it at its first u;
    with none, (max_auto, auto_witness), the first maximiser in (i, u) order."""
    N = fam.N
    max_auto, witness = -N - 1, None
    for i, s in enumerate(fam.bits):
        cs = [corr(s, s, u, N) for u in range(1, N)]
        for c in (max(cs), min(cs)):
            if abs(c) > bound:
                return f"|{c}| > bound {bound} at auto (i, u) = ({i}, {1 + cs.index(c)})"
        if max(cs) > max_auto:
            max_auto, witness = max(cs), (i, 1 + cs.index(max(cs)))
    return max_auto, witness


def sampled_report(fam, k: int, seed: int) -> dict:
    """What sampled family_correlation reports, from random.Random(seed):
    every autocorrelation, then k cross probes (i, j + (j >= i), u) with
    i = randrange(M), j = randrange(M - 1), u = randrange(N) drawn in that
    order; the witness is the first maximiser in draw order."""
    N, M, bits = fam.N, fam.M, fam.bits
    hist = Counter(corr(s, s, u, N) for s in bits for u in range(1, N))
    rng = random.Random(seed)
    max_cross, witness = -N - 1, None
    for _ in range(k):
        i = rng.randrange(M)
        j = rng.randrange(M - 1)
        probe = (i, j + (j >= i), rng.randrange(N))
        c = corr(bits[i], bits[probe[1]], probe[2], N)
        hist[c] += 1
        if c > max_cross:
            max_cross, witness = c, probe
    return {"histogram": dict(hist), "max_cross": max_cross, "cross_witness": witness,
            "samples": k, "seed": seed}


def columns(planes: list[int], N: int) -> list[int]:
    """col_j, whose bit k is bit j of plane k, for 0 <= j < N."""
    return [sum((p >> j & 1) << k for k, p in enumerate(planes)) for j in range(N)]


def counter_cross_transform(planes: list[int], N: int):
    """The exhaustive cross sweep with each delay's lanes counted by Counter, one
    value at a time: (total, first, per_u) with total and first as
    analysis._cross_transform returns them, and per_u the Counter of each delay
    u <= N/2 over its ordered pairs (b, i), i != b."""
    bits = span(planes)[1:]
    M, cols = len(bits), columns(planes, N)
    ones = int("0001" * M, 16)
    spread = str.maketrans({"0": "0000", "1": "0001"})
    signs = [ones - 2 * int("".join(c).translate(spread), 16)  # lane i: (-1)^s_i(j)
             for c in zip(*(format(s, f"0{N}b") for s in reversed(bits)))][::-1]

    def lanes(u: int) -> array:
        """out[b*M + i] = popcount(s_i ^ rotate(s_b, u, N)); i = b where k % (M + 1) == 0."""
        buckets = [0] * (M + 1)
        for c, x in zip(cols[u:] + cols[:u], signs):
            buckets[c] += x
        walsh_hadamard(buckets)
        out = array("H")
        for x in buckets[1:]:
            out.frombytes(((N * ones - x) >> 1).to_bytes(2 * M, "little"))
        if sys.byteorder == "big":
            out.byteswap()
        return out

    per_u, total = [], Counter()
    for u in range(N // 2 + 1):
        counts = Counter(pc for k, pc in enumerate(lanes(u)) if k % (M + 1))
        per_u.append(counts)
        total.update(counts + counts if 2 * u % N else counts)

    def first(pc: int) -> tuple[int, int, int]:
        hits = []
        for u in (u for u, counts in enumerate(per_u) if pc in counts):
            pcs, k = lanes(u), -1
            for _ in range(pcs.count(pc)):
                k = pcs.index(pc, k + 1)
                b, i = divmod(k, M)
                if i != b:
                    hits.append((i, b, u) if i < b else (b, i, (N - u) % N))
        return min(hits)

    return total, first, per_u


def serre_failures(fam) -> list[tuple[int, int]]:
    """Every (i, u), 1 <= u < N, where |2*N_0 - q - 1| > (2d+1)*floor(2*sqrt(q))
    with N_0 = N - popcount(s_i ^ rot_u(s_i)), the agreements of row i and
    its shift: the proof's Serre-form counting identity fails there."""
    N, q = fam.N, 1 << fam.n
    serre = (2 * fam.d + 1) * math.isqrt(4 * q)
    return [(i, u) for i, s in enumerate(fam.bits) for u in range(1, N)
            if abs(2 * (N - (s ^ rotate(s, u, N)).bit_count()) - q - 1) > serre]


def brute_lc(s: int, N: int) -> int:
    """Minimal ell such that some lambda with lambda_0 = lambda_ell = 1
    satisfies sum_i lambda_i s_{i+u} = 0 for all cyclic shifts u."""
    for ell in range(1, N + 1):
        for mid in range(1 << max(ell - 1, 0)):
            lam = 1 | (mid << 1) | (1 << ell)
            rec = 0
            for i in range(ell + 1):
                if (lam >> i) & 1:
                    rec ^= 1 << (ell - i) % N
            if all(((rec & rotate(s, u, N)).bit_count() & 1) == 0
                   for u in range(N)):
                return ell
    return N


def on_curve(curve, P: Point, fld=None) -> bool:
    """P satisfies y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over fld,
    the curve's own field by default; O always does."""
    if P.is_infinity:
        return True
    fld = fld or curve.ctx
    a1, a2, a3, a4, a6 = curve.coeffs_in(fld)
    m = fld.mul
    x, y = P.x, P.y
    lhs = m(y, y) ^ m(a1, m(x, y)) ^ m(a3, y)
    rhs = m(x, m(x, x)) ^ m(a2, m(x, x)) ^ m(a4, x) ^ a6
    return lhs == rhs


def rational_points(curve) -> list[Point]:
    """O, then every (x, y) in GF(q)^2 on the curve, in (x, y) order."""
    q = curve.ctx.q
    pts = (Point(x, y) for x in range(q) for y in range(q))
    return [INFINITY, *(P for P in pts if on_curve(curve, P))]


def per_point_enumeration(curve, ext, d):
    """Every point of E(GF(q^d)), its Frobenius orbit, and a seen set;
    size-d orbits rotated to their smallest (x, y) point, then sorted."""
    assert ext.d == d
    seen: set[Point] = set()
    orbits = []
    for P in curve.iter_points(ext):
        if P in seen:
            continue
        orbit = frobenius_orbit(ext, P)
        seen.update(orbit)
        if len(orbit) == d:
            k = min(range(d), key=lambda i: _sort_key(orbit[i]))
            orbits.append(orbit[k:] + orbit[:k])
    orbits.sort(key=lambda o: _sort_key(o[0]))
    return orbits


def translate_orbit(curve, orbit, j: int, P: Point, ext) -> tuple[Point, ...]:
    """The orbit moved by the translation Q -> Q + [j]P (pointwise)."""
    T = curve.scalar_mul(j % curve.N, P)
    if T.is_infinity:
        return orbit
    Te = Point(ext.embed(T.x), ext.embed(T.y))
    return tuple(curve.add(R, Te, ext) for R in orbit)


def function_values(curve, zs) -> list[tuple[int, ...]]:
    """Each z's values at the rational points, O first.

    A nonconstant f in L(Q) takes any value at most deg Q = d times, so
    when N > d, f is constant iff its values are: see sum_is_constant.
    """
    assert all(curve.N > z.d for z in zs)
    pts = [INFINITY, *curve.iter_points()]
    return [tuple(eval_function(curve, z, P) for P in pts) for z in zs]


def sum_is_constant(v1, v2) -> bool:
    """Whether z1 + z2 is constant, from the function_values of z1 and z2."""
    return len(set(map(xor, v1, v2))) == 1


def enumerate_V(ctx, space) -> list[CurveFunction]:
    """V \\ {0} indexed by coefficient vectors in lexicographic order.

    z = sum_k c_k * V_basis[k] with (c_1, ..., c_{d-1}) running over the
    nonzero vectors of GF(q)^{d-1}, compared as integer tuples.
    """
    basis = space.V_basis
    r = len(basis)
    q = ctx.q
    out = []
    for idx in range(1, q**r):
        cs = [(idx // q ** (r - 1 - k)) % q for k in range(r)]
        coeffs = [0] * len(basis[0].coeffs)
        for ck, vb in zip(cs, basis):
            if ck:
                for m, v in enumerate(vb.coeffs):
                    coeffs[m] ^= ctx.mul(ck, v)
        out.append(CurveFunction(d=basis[0].d, coeffs=tuple(coeffs), dpoly=basis[0].dpoly))
    return out


def shift_identity_check(family, curve, P, space, pairs=None) -> bool:
    """Index shift equals point translation: s_{i,j+u} == Tr(z_i(P_j + [u]P)).

    pairs is an iterable of (i, u); None checks every (i, u) pair.
    """
    pts = ordered_points(curve, P)
    N, bits = family.N, family.bits
    zs = enumerate_V(curve.ctx, space)
    if pairs is None:
        pairs = ((i, u) for i in range(family.M) for u in range(N))
    for i, u in pairs:
        Pu = curve.scalar_mul(u, P)
        row = bits[i]
        z = zs[i]
        for j in range(N):
            shifted = (row >> ((j + u) % N)) & 1
            direct = curve.ctx.trace(eval_function(curve, z, curve.add(pts[j], Pu)))
            if shifted != direct:
                return False
    return True
