"""Correlation and cyclic linear-complexity analysis of a sequence family.

Sequences are ints with bit j = s_j, and C_u(a, b) = N - 2*popcount(a XOR
rot(b, u)).  A family holds its planes (SequenceFamily.planes), its rows being
span(planes)[1:], and exhaustive sweeps take one pass per delay u <= N/2 over it.
s -> s XOR rot(s, u) is linear, so every row's autocorrelation at u is in the
span of the planes' deltas.  For the cross sweep, with col_j the planes' bits
at position j, C_u(s_i, s_b) is the Walsh-Hadamard transform at b + 1 of the
buckets P[col_{j+u}] += (-1)^s_i(j), one 16-bit lane per row i, counted by bit
planes, and C_u(a, b) = C_{N-u}(b, a) gives u > N/2.  Sampled mode replays
random.Random(seed).randrange's draws from getrandbits and reads each probe's
rotation as a window of b|b<<N.  Cyclic linear complexity, N - deg gcd(S(x), x^N+1),
reads their images' span: s(x+1) at N = 2^k, else s mod gcd(x^N+1, the rows' product).
"""

from __future__ import annotations

import math
import os
import random
import sys
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from .family import SequenceFamily
from .gf2 import ValidationError, clmul, poly_gcd, poly_mod, span, walsh_hadamard

DEFAULT_BUDGET_MS = 10_000  # estimated exhaustive sweep time allowed without ECSEQ_BUDGET_MS
_OPS_PER_MS = 3500  # exhaustive lane operations per ms, at or below the slowest measured
_SAMPLE_BLOCK = 4096  # sampled probes held in memory at a time
_DIAGONAL = 0xFFFF  # marks i = b in the cross sweep's 16-bit lanes, which need 2N < it
_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


class BoundViolationError(AssertionError):
    """An asserted correlation or linear-complexity bound failed."""


def corr_bound(q: int, t: int, d: int) -> int:
    """(2d+1) * floor(2*sqrt(q)) + |t|, exactly."""
    return (2 * d + 1) * math.isqrt(4 * q) + abs(t)


@dataclass
class CorrelationReport:
    N: int
    M: int
    bound: int
    max_auto: int
    max_cross: int | None
    cor: int
    histogram: dict[int, int]
    auto_witness: tuple[int, int] | None   # (i, u); None when N = 1
    cross_witness: tuple[int, int, int] | None  # (i, j, u)
    mode: str                               # "exhaustive" or "sampled"
    identities_ok: bool                     # counting_identity_check's verdict
    samples: int | None = None
    seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "N": self.N, "M": self.M, "bound": self.bound,
            "max_auto": self.max_auto, "max_cross": self.max_cross,
            "cor": self.cor,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "auto_witness": list(self.auto_witness) if self.auto_witness else None,
            "cross_witness": list(self.cross_witness) if self.cross_witness else None,
            "mode": self.mode, "samples": self.samples, "seed": self.seed,
        }


@dataclass
class LinearComplexityReport:
    N: int
    q: int
    t: int
    d: int
    lc_per_sequence: list[int] = field(default_factory=list)
    lc_min: int = 0
    lc_bound_ceil: int = 0

    def as_dict(self) -> dict:
        return {
            "N": self.N, "q": self.q, "t": self.t, "d": self.d,
            "lc_per_sequence": self.lc_per_sequence,
            "lc_min": self.lc_min, "lc_bound_ceil": self.lc_bound_ceil,
        }


def exhaustive_allowed(family: SequenceFamily) -> bool:
    """Budget gate for the exhaustive sweep: M * (M+1) * (N//2 + 1) lane
    operations, M + 1 buckets per row and delay, at _OPS_PER_MS must fit in
    ECSEQ_BUDGET_MS, or DEFAULT_BUDGET_MS if unset; N must fit the 16-bit lanes."""
    env = os.environ.get("ECSEQ_BUDGET_MS")
    if env and not (env.isascii() and env.isdigit() and len(env) <= 18):
        shown = env if len(env) <= 20 else env[:20] + "..."
        raise ValidationError(
            f"ECSEQ_BUDGET_MS={shown!r} is not a non-negative integer of at most 18 digits")
    budget = (int(env) if env else DEFAULT_BUDGET_MS) * _OPS_PER_MS
    return 2 * family.N < _DIAGONAL and family.M * (family.M + 1) * (family.N // 2 + 1) <= budget


def _per_delay(count: Callable, us: range, N: int) -> tuple[Counter, Callable]:
    """count(u) totalled over us, twice where 2u % N != 0 as u stands for N - u
    too, and where(pcs): the delays whose counts (only keys kept) hold a pc."""
    per_u, total = [], Counter()
    for u in us:
        counts = count(u)
        per_u.append((u, array("I", counts)))
        total.update(counts + counts if 2 * u % N else counts)
    return total, lambda pcs: [u for u, keys in per_u if not pcs.isdisjoint(keys)]


def _auto_transform(planes: list[int], N: int) -> tuple[Counter, Callable[[set], tuple]]:
    """Counts of popcount(s_i ^ rotate(s_i, u)) over every (i, u), 0 < u < N, s_i
    row i of span(planes)[1:], and first(pcs): the lexicographically first (i, u)
    whose popcount is in pcs.  Row i's value at u is row i of the span of the
    planes' deltas.  A_u = A_{N-u}: u <= N/2 is swept, on windows of p|p<<N."""
    mask = (1 << N) - 1

    def values(u: int) -> Iterator[int]:
        return map(int.bit_count, span([p ^ (p | p << N) >> u & mask for p in planes])[1:])
    total, where = _per_delay(lambda u: Counter(values(u)), range(1, N // 2 + 1), N)
    return total, lambda pcs: min(
        (next(i for i, pc in enumerate(values(u)) if pc in pcs), u) for u in where(pcs))


def _lane_counter(lanes: int, w: int) -> Callable[[bytes], Counter]:
    """count(raw): counts of the low w <= 16 bits of raw's first `lanes` 16-bit
    little-endian lanes.  Three masked delta swaps transpose the low (high) bytes
    of each 8 lanes as an 8x8 bit matrix, so plane k (8 + k), bit p is bit k of
    lane p's low (high) byte; a trie over the planes from bit w-1 down splits each
    node by & and ^ and counts it by bit_count."""
    size = lanes + -lanes % 8  # whole blocks of 8 lanes
    swaps = [(shift, int.from_bytes(mask.to_bytes(8, "little") * (size // 8), "little"))
             for shift, mask in _TRANSPOSE]

    def count(raw: bytes) -> Counter:
        planes = []
        for half in range((w + 7) // 8):
            x = int.from_bytes(raw[half::2], "little")  # the pad lanes are 0
            for shift, mask in swaps:
                t = (x ^ x >> shift) & mask
                x ^= t ^ t << shift
            x = x.to_bytes(size, "little")
            planes += [int.from_bytes(x[k::8], "little") for k in range(min(8, w - len(planes)))]
        counts, stack = Counter(), [(w - 1, (1 << lanes) - 1, lanes, 0)]
        while stack:
            k, node, n, value = stack.pop()
            if k < 0:
                counts[value] = n
                continue
            one = node & planes[k]
            if ones := one.bit_count():
                stack.append((k - 1, one, ones, value | 1 << k))
            if ones < n:  # a leaf needs only its count
                stack.append((k - 1, node ^ one if k else 0, n - ones, value))
        return counts
    return count


def _cross_transform(planes: list[int], N: int) -> tuple[Counter, Callable[[int], tuple]]:
    """Popcount counts over every (i, j, u) with i != j, rows span(planes)[1:],
    and first(pc): the lexicographically first (i, j, u) with i < j where pc occurs.

    Row b reads bucket b + 1, so the planes need not be independent.  Delay
    u <= N/2 of the ordered pair (i, b) also stands for (b, i, N-u).  A lane
    holds popcount(s_i ^ rot(s_b, u)) = (N - C_u) / 2 in [0, N], below 2^w - 1,
    the diagonal's low w bits.
    """
    bits = span(planes)[1:]
    M, w = len(bits), (N + 1).bit_length()
    cols = [sum((p >> j & 1) << k for k, p in enumerate(planes)) for j in range(N)]
    ones = int("0001" * M, 16)
    spread = str.maketrans({"0": "0000", "1": "0001"})
    signs = [ones - 2 * int("".join(c).translate(spread), 16)  # lane i: (-1)^s_i(j)
             for c in zip(*(format(s, f"0{N}b") for s in reversed(bits)))][::-1]

    def lanes(u: int) -> bytearray:
        """Lane b*M + i (16-bit little-endian) = popcount(s_i ^ rotate(s_b, u, N))."""
        buckets = [0] * (M + 1)
        for c, x in zip(cols[u:] + cols[:u], signs):
            buckets[c] += x
        walsh_hadamard(buckets)
        out = bytearray().join([((N * ones - x) >> 1).to_bytes(2 * M, "little")
                                for x in buckets[1:]])
        out[0::2 * M + 2] = out[1::2 * M + 2] = b"\xff" * M  # _DIAGONAL where i = b
        return out

    count = _lane_counter(M * M, w)

    def counts(u: int) -> Counter:
        c = count(lanes(u))
        del c[(1 << w) - 1]  # the diagonal
        return c
    total, where = _per_delay(counts, range(N // 2 + 1), N)

    def first(pc: int) -> tuple[int, int, int]:
        hits, key = [], int.from_bytes(pc.to_bytes(2, "little"), sys.byteorder)  # pc's lane
        for u in where({pc}):
            pcs, k = array("H", lanes(u)), -1  # native byte order
            for _ in range(pcs.count(key)):
                k = pcs.index(key, k + 1)
                b, i = divmod(k, M)
                hits.append((i, b, u) if i < b else (b, i, (N - u) % N))
        return min(hits)

    return total, first


def _serre_holds(family: SequenceFamily, popcounts: Iterable[int]) -> bool:
    """|2*N_0 - q - 1| <= (2d+1)*floor(2*sqrt(q)), N_0 = N - popcount, for each."""
    N, q = family.N, family.q
    serre = (2 * family.d + 1) * math.isqrt(4 * q)
    return all(abs(2 * (N - pc) - q - 1) <= serre for pc in popcounts)


class _Sweep:
    """Popcount histogram and first maximiser of one correlation kind."""

    def __init__(self, N: int, bound: int, kind: str):
        self.N, self.bound, self.kind = N, bound, kind
        self.popcounts: Counter = Counter()
        self.max, self.witness = -N - 1, None

    def fold(self, counts: Counter, first: Callable[[int], tuple]) -> None:
        """Add one block of popcount counts; first(pc) names the (i, u) or
        (i, j, u) where pc first occurs in witness order.

        Correlation is N - 2*popcount, so the extreme popcounts are the
        extreme correlations, and both are held to |c| <= bound, the largest
        correlation checked first.  The strict > keeps the first maximiser.
        """
        if not counts:
            return
        lo, hi = min(counts), max(counts)
        for pc in (lo, hi):
            if abs(self.N - 2 * pc) > self.bound:
                raise BoundViolationError(
                    f"|{self.N - 2 * pc}| > bound {self.bound} at {self.kind} = {first(pc)}")
        self.popcounts.update(counts)
        if self.N - 2 * lo > self.max:
            self.max = self.N - 2 * lo
            self.witness = first(lo)


def family_correlation(family: SequenceFamily, sampled: int | None = None,
                       seed: int = 0) -> CorrelationReport:
    """Max correlation with witnesses; asserts the family bound.

    sampled=None runs the exhaustive sweep over all pairs and delays
    (subject to the budget gate); sampled=k probes k uniform (i, j, u)
    cross triples and still sweeps every autocorrelation.  Witnesses are
    the first maximiser in (i, u) and (i, j, u) order, or in draw order
    when sampled.  The autocorrelations are checked against the bound row
    by row, before any cross-correlation.
    """
    if sampled is not None and sampled < 1:
        raise ValidationError(f"sampled probe count {sampled} is below 1")
    N, M, bits, planes = family.N, family.M, family.bits, family.planes
    bound = corr_bound(family.q, family.t, family.d)
    exhaustive = M > 1 and sampled is None
    mode = "sampled" if M > 1 and sampled is not None else "exhaustive"
    if exhaustive and not exhaustive_allowed(family):
        raise ValidationError(
            f"exhaustive sweep over M={M} rows exceeds the budget; "
            "use sampled mode or raise ECSEQ_BUDGET_MS")
    auto = _Sweep(N, bound, "auto (i, u)")
    cross = _Sweep(N, bound, "cross (i, j, u)")
    counts, first = _auto_transform(planes, N)
    if bad := {pc for pc in counts if abs(N - 2 * pc) > bound}:
        i = first(bad)[0]  # the first row out of bound raises on its own extremes
        row, row_first = _auto_transform([bits[i]], N)
        auto.fold(row, lambda pc: (i, row_first({pc})[1]))
    auto.fold(counts, lambda pc: first({pc}))
    if exhaustive:
        cross.fold(*_cross_transform(planes, N))
    elif mode == "sampled":
        # Random(seed).randrange(n), inlined: draw n.bit_length() bits until below n
        draw, mask = random.Random(seed).getrandbits, (1 << N) - 1
        kM, kJ, kN = M.bit_length(), (M - 1).bit_length(), N.bit_length()
        twice = [a | a << N for a in bits]  # row j rotated by u: twice[j] >> u & mask
        for start in range(0, sampled, _SAMPLE_BLOCK):
            draws = []
            for _ in range(min(_SAMPLE_BLOCK, sampled - start)):
                while (i := draw(kM)) >= M: pass
                while (j := draw(kJ)) >= M - 1: pass
                while (u := draw(kN)) >= N: pass
                draws.append((i, j + (j >= i), u))
            pcs = [(bits[i] ^ twice[j] >> u & mask).bit_count() for i, j, u in draws]
            cross.fold(Counter(pcs), lambda pc: draws[pcs.index(pc)])
    hist = {N - 2 * pc: auto.popcounts[pc] + cross.popcounts[pc]
            for pc in auto.popcounts.keys() | cross.popcounts.keys()}
    max_cross = cross.max if M > 1 else None
    cor = auto.max if max_cross is None else max(auto.max, max_cross)
    return CorrelationReport(
        N=N, M=M, bound=bound, max_auto=auto.max, max_cross=max_cross,
        cor=cor, histogram=hist, auto_witness=auto.witness,
        cross_witness=cross.witness, mode=mode,
        identities_ok=_serre_holds(family, auto.popcounts),
        samples=sampled if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None)


# ----------------------------------------------------------------------
# Cyclic linear complexity.

def lc_bound_check(lc_min: int, q: int, t: int, d: int) -> bool:
    """lc_min >= (q+1+2t-2(d+1)*sqrt(q)) / (2d*sqrt(q)), compared exactly.

    The inequality rearranges to sqrt(q)*(2d*lc + 2(d+1)) >= q+1+2t; both
    sides are compared by squaring since the left side is positive.
    """
    A = q + 1 + 2 * t
    if A <= 0:
        return True
    K = 2 * d * lc_min + 2 * (d + 1)
    return q * K * K >= A * A


def lc_bound_ceil(q: int, t: int, d: int) -> int:
    """Smallest integer linear complexity the bound forces."""
    lc = 0
    while not lc_bound_check(lc, q, t, d):
        lc += 1
    return lc


def family_linear_complexity(family: SequenceFamily) -> LinearComplexityReport:
    """Per-row cyclic linear complexity; asserts the family lower bound.

    N - LC(s) = deg gcd(s, x^N + 1), read from s's image under a linear map, so
    from the span of the planes' images.  At N = 2^k, x^N + 1 = (x + 1)^N, the map
    is s(x + 1), bit j the XOR of s_i over i & j = j (Lucas), and the gcd its
    lowest set bit.  Else the map is s mod G, G = gcd(x^N + 1, the rows' product,
    that of beta = L(p) over the planes p, L the subspace polynomial of those
    before p), a multiple of the gcd.  Zero rows report 0 and are held to the
    bound; only six built families have them
    (tests: test_planes_are_independent_but_at_six_vacuous_families)."""
    N, bits, planes = family.N, family.bits, family.planes
    if not any(bits):
        raise ValidationError("zero sequence family has no linear complexity")
    mask = (1 << N) - 1
    if N & N - 1 == 0:
        image, gcd = planes, lambda c: c & -c
        for h in (1 << k for k in range(N.bit_length() - 1)):
            low = mask // ((1 << 2 * h) - 1) * ((1 << h) - 1)  # bits j with j & h = 0
            image = [p ^ p >> h & low for p in image]
    else:
        product, ys = 1, planes  # ys: L at each later plane; L(p + q) = L(p) + L(q)
        while ys:
            beta, *ys = ys
            product, *ys = [(p & mask) ^ p >> N  # mod x^N + 1
                            for p in [clmul(product, beta), *(clmul(y, y ^ beta) for y in ys)]]
        G = poly_gcd((1 << N) | 1, product)
        image, gcd = [poly_mod(p, G) for p in planes], lambda r: poly_gcd(G, r)
    lcs = [N + 1 - gcd(c).bit_length() if s else 0 for s, c in zip(bits, span(image)[1:])]
    lc_min = min(lcs)
    if not lc_bound_check(lc_min, family.q, family.t, family.d):
        raise BoundViolationError(
            f"lc_min = {lc_min} below the exact lower bound "
            f"(q={family.q}, t={family.t}, d={family.d})")
    return LinearComplexityReport(
        N=family.N, q=family.q, t=family.t, d=family.d,
        lc_per_sequence=lcs, lc_min=lc_min,
        lc_bound_ceil=lc_bound_ceil(family.q, family.t, family.d))


# ----------------------------------------------------------------------
# Proof-level counting identities.

def counting_identity_check(family: SequenceFamily) -> bool:
    """Per (row, delay): |2*N_0 - q - 1| <= (2d+1)*floor(2*sqrt(q)), with
    N_0 the agreement count of the row and its shift.  This Serre-form
    bound is the one the proof uses; since 2*N_0 - q - 1 = A_u + t, it
    implies |A_u| <= the family bound.  Exhaustive; family_correlation
    reports the same verdict as identities_ok.
    """
    return _serre_holds(family, _auto_transform(family.planes, family.N)[0])
