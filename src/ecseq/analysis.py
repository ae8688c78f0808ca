"""Correlation and cyclic linear-complexity analysis of a sequence family.

Sequences are ints with bit j = s_j; correlations are computed word-packed
as N - 2*popcount(a XOR rot(b, u)).  The cyclic linear complexity of s is
N - deg gcd(S(x), x^N + 1) over GF(2): the connection polynomial
(x^N + 1) / gcd has that degree and annihilates every cyclic shift.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, cycle, repeat
from operator import indexOf, xor

from .family import SequenceFamily
from .gf2 import ValidationError, poly_gcd

DEFAULT_BUDGET_MS = 10_000  # estimated exhaustive sweep time allowed without ECSEQ_BUDGET_MS
_OPS_PER_MS = 3500  # exhaustive pair-shifts per ms, at or below the slowest measured
_SAMPLE_BLOCK = 4096  # sampled probes held in memory at a time


class BoundViolationError(AssertionError):
    """An asserted correlation or linear-complexity bound failed."""


def rotate(v: int, u: int, N: int) -> int:
    """Cyclic right rotation: bit j of the result is bit (j+u) mod N of v."""
    u %= N
    return (v >> u) | ((v & ((1 << u) - 1)) << (N - u))


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
    """Budget gate for exhaustive pair sweeps: (M(M-1)/2 + M) * N pair-shifts at
    _OPS_PER_MS must fit in ECSEQ_BUDGET_MS, or DEFAULT_BUDGET_MS if unset."""
    env = os.environ.get("ECSEQ_BUDGET_MS")
    if env and not (env.isascii() and env.isdigit() and len(env) <= 18):
        shown = env if len(env) <= 20 else env[:20] + "..."
        raise ValidationError(
            f"ECSEQ_BUDGET_MS={shown!r} is not a non-negative integer of at most 18 digits")
    budget_ms = int(env) if env else DEFAULT_BUDGET_MS
    ops = (family.M * (family.M - 1) // 2 + family.M) * family.N
    return ops <= budget_ms * _OPS_PER_MS


def _rotations(a: int, N: int, count: int) -> list[int]:
    """rotate(a, -u, N) for u = 0..count-1, built in C as windows of a|a<<N.

    Rotation preserves popcount, so popcount(a ^ rotate(b, u, N)) equals
    popcount(rots[u] ^ b): one row's table serves every partner b.
    """
    mask = (1 << N) - 1
    return list(map(mask.__and__, map((a | a << N).__rshift__, range(N, N - count, -1))))


def _popcounts(rots: list[int], partners) -> Iterator[int]:
    """popcount(r ^ b) for b in partners and r in rots, partner-major.

    The iteration runs in C (map over repeat/cycle), not in Python.
    """
    each = chain.from_iterable(map(repeat, partners, repeat(len(rots))))
    return map(int.bit_count, map(xor, each, cycle(rots)))


def _auto_sweeps(bits: list[int], N: int, count: int) -> Iterator[tuple[list[int], list[int]]]:
    """(_rotations(a, N, count), auto popcounts for u = 1..N-1) per row a.
    A_u(a) = A_{N-u}(a), so only u <= N/2 < count is swept, then mirrored."""
    for a in bits:
        rots = _rotations(a, N, count)
        half = list(_popcounts(rots[1:N // 2 + 1], (a,)))
        yield rots, half + half[:(N - 1) // 2][::-1]


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

    def fold(self, block: Callable[[], Iterable[int]],
             locate: Callable[[int], tuple]) -> None:
        """Add one block of popcounts, in witness order.

        block() yields the block afresh (it is re-run only to find the
        index of an extreme); locate(k) names the (i, u) or (i, j, u) of
        its k-th value.  Correlation is N - 2*popcount, so the extreme
        popcounts are the extreme correlations, and both are held to
        |c| <= bound.  The strict > keeps the first maximiser.
        """
        counts = Counter(block())
        if not counts:
            return
        lo, hi = min(counts), max(counts)
        for pc in (lo, hi):
            if abs(self.N - 2 * pc) > self.bound:
                raise BoundViolationError(
                    f"|{self.N - 2 * pc}| > bound {self.bound} at "
                    f"{self.kind} = {locate(indexOf(block(), pc))}")
        self.popcounts.update(counts)
        if self.N - 2 * lo > self.max:
            self.max = self.N - 2 * lo
            self.witness = locate(indexOf(block(), lo))


def family_correlation(family: SequenceFamily, sampled: int | None = None,
                       seed: int = 0) -> CorrelationReport:
    """Max correlation with witnesses; asserts the family bound.

    sampled=None runs the exhaustive sweep over all pairs and delays
    (subject to the budget gate); sampled=k probes k uniform (i, j, u)
    cross triples and still sweeps every autocorrelation.  Witnesses are
    the first maximiser in (i, u) and (i, j, u) order, or in draw order
    when sampled.
    """
    if sampled is not None and sampled < 1:
        raise ValidationError(f"sampled probe count {sampled} is below 1")
    N, M, bits = family.N, family.M, family.bits
    bound = corr_bound(family.q, family.t, family.d)
    exhaustive = M > 1 and sampled is None
    mode = "sampled" if M > 1 and sampled is not None else "exhaustive"
    if exhaustive and not exhaustive_allowed(family):
        raise ValidationError(
            f"exhaustive sweep over M={M} rows exceeds the budget; "
            "use sampled mode or raise ECSEQ_BUDGET_MS")
    auto = _Sweep(N, bound, "auto (i, u)")
    cross = _Sweep(N, bound, "cross (i, j, u)")
    sweeps = _auto_sweeps(bits, N, N if exhaustive else N // 2 + 1)
    for i, (rots, pcs) in enumerate(sweeps):
        auto.fold(lambda: pcs, lambda k: (i, k + 1))
        if exhaustive:
            cross.fold(lambda: _popcounts(rots, bits[i + 1:]),
                       lambda k: (i, i + 1 + k // N, k % N))
    if mode == "sampled":
        rng = random.Random(seed)
        for start in range(0, sampled, _SAMPLE_BLOCK):
            draws = []
            for _ in range(min(_SAMPLE_BLOCK, sampled - start)):
                i = rng.randrange(M)
                j = rng.randrange(M - 1)
                draws.append((i, j + (j >= i), rng.randrange(N)))
            pcs = [(bits[i] ^ rotate(bits[j], u, N)).bit_count()
                   for i, j, u in draws]
            cross.fold(lambda: pcs, draws.__getitem__)
    # C_u(s_i, s_j) = C_{N-u}(s_j, s_i): the exhaustive sweep visits i < j
    # only, so each of its values also stands for the mirrored pair
    weight = 2 if exhaustive else 1
    hist = {N - 2 * pc: auto.popcounts[pc] + weight * cross.popcounts[pc]
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

def linear_complexity_cyclic(s: int, N: int) -> int:
    """Smallest ell with a length-ell recurrence killing all cyclic shifts:
    N - deg gcd(S(x), x^N + 1)."""
    if s == 0:
        raise ValidationError("zero sequence has no linear complexity")
    return N + 1 - poly_gcd(s, (1 << N) | 1).bit_length()


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

    All-zero rows (which occur only at degenerate tiny lengths) are
    reported as complexity 0 and still held to the exact bound.
    """
    if not any(family.bits):
        raise ValidationError("zero sequence family has no linear complexity")
    lcs = [linear_complexity_cyclic(s, family.N) if s else 0
           for s in family.bits]
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
    sweeps = _auto_sweeps(family.bits, family.N, family.N // 2 + 1)
    return _serre_holds(family, chain.from_iterable(pcs for _, pcs in sweeps))
