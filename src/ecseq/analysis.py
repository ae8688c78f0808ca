"""Correlation and cyclic linear-complexity analysis of a sequence family.

Sequences are ints with bit j = s_j, and C_u(a, b) = N - 2*popcount(a XOR
rot(b, u)).  A family holds its planes (SequenceFamily.planes), its rows being
span(planes)[1:], and exhaustive sweeps take one pass per delay u <= N/2 over it,
a long sweep's delays dealt over one forked process per CPU.  s -> s XOR
rot(s, u) is linear, so every row's autocorrelation at u is in the span of the
planes' deltas.  For the cross sweep, with col_j the planes' bits
at position j, C_u(s_i, s_b) is the Walsh-Hadamard transform at b + 1 of the
buckets P[col_{j+u}] += (-1)^s_i(j), one lane per row i, counted by bit planes,
and C_u(a, b) = C_{N-u}(b, a) gives u > N/2.  The lanes i = b are taken off;
when the rows share a mirror, s_j = s_{(c-j) mod N}, as every d = 2 family's
do, C_u(a, b) = C_u(b, a) and only the lanes i < b are counted, twice.  A lane
is one byte below N = 512, where a carry out of a lane shows in the lanes' sum,
and two bytes above.
Sampled mode replays random.Random(seed).randrange's draws from getrandbits and
reads each probe's rotation as a window of b|b<<N; the probes are one share of the
autocorrelation sweep's dealing, which returns their counts and first draws at
both extreme popcounts, folded once after it.  Cyclic linear complexity,
N - deg gcd(S(x), x^N+1), reads their images' span: s(x+1) at N = 2^k, else
s mod gcd(x^N+1, the rows' product).
"""

from __future__ import annotations

import marshal
import math
import os
import random
import sys
import time
from array import array
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator

from .family import SequenceFamily
from .gf2 import ValidationError, clmul, poly_gcd, poly_mod, span, walsh_hadamard

DEFAULT_BUDGET_MS = 10_000  # estimated exhaustive sweep time allowed without ECSEQ_BUDGET_MS
_OPS_PER_MS = 3500  # exhaustive lane operations per ms, at or below the slowest measured
_FORK_AFTER_S = 0.1  # a per-delay sweep forks once the delays after its first would take this long
_SAMPLE_BLOCK = 4096  # sampled probes held in memory at a time
_CHUNK = 1 << 20  # lanes transposed and counted at a time, a multiple of 8: bounds the masks and planes
_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


class BoundViolationError(AssertionError):
    """An asserted correlation or linear-complexity bound failed."""


def corr_bound(q: int, t: int, d: int) -> int:
    """(2d+1) * floor(2*sqrt(q)) + |t|, exactly."""
    return (2 * d + 1) * math.isqrt(4 * q) + abs(t)


class CorrelationReport(namedtuple(
        "CorrelationReport", "N M bound max_auto max_cross cor histogram auto_witness "
        "cross_witness mode identities_ok samples seed", defaults=(None, None))):
    """max_cross is None when M = 1; histogram maps C to its count; auto_witness
    is (i, u), None when N = 1, and cross_witness (i, j, u); mode is "exhaustive"
    or "sampled"; identities_ok is the Serre form, |2*N_0 - q - 1| =
    |C + t| <= (2d+1)*floor(2*sqrt(q)), on every auto and cross value seen."""

    __slots__ = ()

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


class LinearComplexityReport(namedtuple(
        "LinearComplexityReport", "N q t d lc_per_sequence lc_min lc_bound_ceil",
        defaults=([], 0, 0))):
    """The default lc_per_sequence is one shared list, which nothing mutates."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "N": self.N, "q": self.q, "t": self.t, "d": self.d,
            "lc_per_sequence": self.lc_per_sequence,
            "lc_min": self.lc_min, "lc_bound_ceil": self.lc_bound_ceil,
        }


def exhaustive_allowed(family: SequenceFamily) -> bool:
    """Budget gate for the exhaustive sweep: M * (M+1) * (N//2 + 1) lane
    operations, M + 1 buckets per row and delay, at _OPS_PER_MS must fit in
    ECSEQ_BUDGET_MS, or DEFAULT_BUDGET_MS if unset; N < 2^16 fits a 2-byte lane.
    The estimate is one process's, not divided over the CPUs the sweep may
    fork onto, so the exhaustive/sampled choice is the same on every machine."""
    env = os.environ.get("ECSEQ_BUDGET_MS")
    if env and not (env.isascii() and env.isdigit() and len(env) <= 18):
        shown = env if len(env) <= 20 else env[:20] + "..."
        raise ValidationError(
            f"ECSEQ_BUDGET_MS={shown!r} is not a non-negative integer of at most 18 digits")
    budget = (int(env) if env else DEFAULT_BUDGET_MS) * _OPS_PER_MS
    return family.N < 2**16 and family.M * (family.M + 1) * (family.N // 2 + 1) <= budget


def _dealt(count: Callable, us: range, side: Callable | None = None) -> tuple[list[dict], object]:
    """([count(u) for u in us], side() or None).  The first delay runs here and
    is timed; if the rest would take _FORK_AFTER_S or more at that rate, they
    are dealt round-robin over this process and one forked child per further
    CPU it may run on, unless it runs a second thread; side, if given, then
    takes one of those children to itself, and else runs here after the
    delays.  A child marshals its share's results back through a pipe and
    leaves by os._exit; a share whose child fails, or cannot be forked, is
    run here, so any exception is raised here.  Every child is reaped on
    return."""
    start = time.perf_counter()
    run = lambda u: side() if u is None else dict(count(u))  # None: the side job
    out = {u: count(u) for u in us[:1]}
    rest, k = us[1:], 1
    threading = sys.modules.get("threading")  # forking a process with threads is unsafe
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")  # not on macOS or Windows
            and (threading is None or threading.active_count() == 1)
            and (time.perf_counter() - start) * len(rest) >= _FORK_AFTER_S):
        k = max(1, min(len(os.sched_getaffinity(0)), len(rest) + (side is not None)))
    dealers = k - (k > 1 and side is not None)  # processes that count delays
    shares = [rest[i::dealers] for i in range(dealers)] + [[None]] * (side is not None)
    children = {}  # pid: (read end, share)
    try:
        for share in shares[1:k]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    with open(w, "wb") as pipe:
                        pipe.write(marshal.dumps([run(u) for u in share]))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[pid] = (open(r, "rb"), share)
        for share in [shares[0], *shares[1 + len(children):]]:
            out.update((u, run(u)) for u in share)
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            del children[pid]
            try:
                results = marshal.loads(data)  # a child that failed wrote none or a prefix
            except EOFError:
                results = map(run, share)
            out.update(zip(share, results))
    finally:
        for pid, (pipe, _) in children.items():  # left by an exception
            import signal
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [out[u] for u in us], out.get(None)


def _per_delay(count: Callable, us: range, N: int,
               side: Callable | None = None) -> tuple[Counter, Callable, object]:
    """count(u) totalled over us, twice where 2u % N != 0 as u stands for N - u
    too, where(pc): the delays whose counts (only keys kept) hold pc, and
    side's result, run as _dealt's side job."""
    per_u, total = [], Counter()
    counted, result = _dealt(count, us, side)
    for u, counts in zip(us, counted):
        per_u.append((u, array("I", counts)))
        total.update(counts)
        if 2 * u % N:
            total.update(counts)
    return total, lambda pc: [u for u, keys in per_u if pc in keys], result


def _auto_values(planes: list[int], N: int, u: int) -> Iterator[int]:
    """popcount(s_i ^ rotate(s_i, u)) for each row s_i of span(planes)[1:], read
    as row i of the span of the planes' deltas, on windows of p|p<<N."""
    mask = (1 << N) - 1
    return map(int.bit_count, span([p ^ (p | p << N) >> u & mask for p in planes])[1:])


def _auto_transform(planes: list[int], N: int,
                    side: Callable | None = None) -> tuple[Counter, Callable[[int], tuple], object]:
    """Counts of popcount(s_i ^ rotate(s_i, u)) over every (i, u), 0 < u < N, s_i
    row i of span(planes)[1:], first(pc): the lexicographically first (i, u)
    with popcount pc, and side's result.  A_u = A_{N-u}: u <= N/2 is swept."""
    total, where, result = _per_delay(lambda u: Counter(_auto_values(planes, N, u)),
                                      range(1, N // 2 + 1), N, side)
    return total, lambda pc: min(
        (list(_auto_values(planes, N, u)).index(pc), u) for u in where(pc)), result


def _lane_counter(lanes: int, w: int) -> Callable[[bytes], Counter]:
    """count(raw): counts of the low w <= 16 bits of raw's first `lanes` lanes,
    each (w + 7) // 8 bytes, little-endian, _CHUNK lanes at a time.  Three masked
    delta swaps transpose byte h of each 8 lanes as an 8x8 bit matrix, so plane
    8h + k, bit p is bit k of lane p's byte h; a trie over the planes from bit
    w-1 down splits each node by & and ^ and counts it by bit_count."""
    width, chunk = (w + 7) // 8, min(_CHUNK, lanes + -lanes % 8) or 8
    swaps = [(shift, int.from_bytes(mask.to_bytes(8, "little") * (chunk // 8), "little"))
             for shift, mask in _TRANSPOSE]

    def count(raw: bytes) -> Counter:
        counts = Counter()
        for start in range(0, lanes, chunk):
            size, planes = min(chunk, lanes - start), []
            for h in range(width):
                x = int.from_bytes(raw[start * width + h:(start + size) * width:width], "little")
                for shift, mask in swaps:
                    t = (x ^ x >> shift) & mask
                    x ^= t ^ t << shift
                x = x.to_bytes(size + -size % 8, "little")  # the pad lanes are 0
                planes += [int.from_bytes(x[k::8], "little") for k in range(min(8, w - len(planes)))]
            stack = [(w - 1, (1 << size) - 1, size, 0)]
            while stack:
                k, node, n, value = stack.pop()
                if k < 0:
                    counts[value] += n
                    continue
                one = node & planes[k]
                if ones := one.bit_count():
                    stack.append((k - 1, one, ones, value | 1 << k))
                if ones < n:  # a leaf needs only its count
                    stack.append((k - 1, node ^ one if k else 0, n - ones, value))
        return counts
    return count


def _mirror(cols: list[int]) -> int | None:
    """c with col_j = col_{(c-j) mod N} at every j, so s_j = s_{(c-j) mod N} on
    every row, or None: the first rotation of the reversed columns equal to them."""
    text = "".join(map(chr, cols))
    o = (text[::-1] * 2).find(text)
    return None if o < 0 else len(cols) - 1 - o


def _cross_transform(planes: list[int], N: int,
                     width: int = 1) -> tuple[Counter, Callable[[int], tuple]]:
    """Popcount counts over every (i, j, u) with i != j, rows span(planes)[1:],
    and first(pc): the lexicographically first (i, j, u) with i < j where pc occurs.

    Row b reads bucket b + 1, so the planes need not be independent.  Delay
    u <= N/2 of the ordered pair (i, b) also stands for (b, i, N-u).  A lane
    holds popcount(s_i ^ rot(s_b, u)) = (N - C_u) / 2 in [0, N], in `width`
    bytes, 2 at N >= 512.  Row b's lanes are counted and its lane i = b, an
    autocorrelation, taken off; or, when the rows share a mirror (_mirror), its
    lanes i < b, twice: C_u(s_i, s_b) = C_u(s_b, s_i).  With h = (M+1)/2 rows odd
    at each nonzero col_j, Z of them and Z_u nonzero at both j and j+u, the M^2
    lanes sum to 2hM*Z - 2h^2*Z_u.  Each carry out of a byte lane up to a row's
    last one read takes 255 or more from the sum of the bytes read, every lane's
    or, when mirrored, twice the lanes i < b plus the diagonal: at N >= 256 a
    mismatch, or to_bytes' OverflowError, reruns the sweep in 2 bytes.
    """
    width = max(width, 1 + (N >= 512))
    bits = span(planes)[1:]
    M, w = len(bits), min(8 * width, N.bit_length())
    cols = [sum((p >> j & 1) << k for k, p in enumerate(planes)) for j in range(N)]
    half = _mirror(cols) is not None
    pad = "0" * (2 * width - 1)  # the hex digits of a lane above its last
    ones = int((pad + "1") * M, 16)
    spread = str.maketrans({"0": pad + "0", "1": pad + "1"})
    signs = [ones - 2 * int("".join(c).translate(spread), 16)  # lane i: (-1)^s_i(j)
             for c in zip(*(format(s, f"0{N}b") for s in reversed(bits)))][::-1]
    h, nonzero = (M + 1) // 2, sum(1 << j for j, c in enumerate(cols) if c)

    def lanes(u: int) -> list[bytes]:
        """Row b's lanes i, little-endian popcount(s_i ^ rotate(s_b, u, N))."""
        buckets = [0] * (M + 1)
        for c, x in zip(cols[u:] + cols[:u], signs):
            buckets[c] += x
        walsh_hadamard(buckets)
        rows = [((N * ones - buckets.pop()) >> 1).to_bytes(width * M, "little")
                for _ in range(M)]  # rows M-1 down to 0, each bucket freed once read
        return rows[::-1]

    count = _lane_counter(M * (M - 1) // 2 if half else M * M, w)

    def counts(u: int) -> dict:
        rows = lanes(u)
        c = count(b"".join([r[:b * width] for b, r in enumerate(rows)] if half else rows))
        both = (nonzero & (nonzero | nonzero << N) >> u).bit_count()  # Z_u
        if width == 1 and N >= 256 and (sum(v * k for v, k in c.items()) << half) + half * sum(
                r[b] for b, r in enumerate(rows)) != 2 * h * (M * nonzero.bit_count() - h * both):
            raise OverflowError(f"a byte lane carried at u = {u}")
        if not half:
            c.subtract(_auto_values(planes, N, u))  # the diagonal, i = b
        return {pc: k << half for pc, k in c.items() if k}
    try:
        total, where, _ = _per_delay(counts, range(N // 2 + 1), N)
    except OverflowError:
        if width > 1:
            raise
        return _cross_transform(planes, N, 2)

    def first(pc: int) -> tuple[int, int, int]:
        """A row's first lane holding pc gives its first (i, j, u) in order."""
        hits, key = [], int.from_bytes(pc.to_bytes(width, "little"), sys.byteorder)  # pc's lane
        for u in where(pc):
            for b, row in enumerate(lanes(u)):
                pcs = array("BH"[width - 1], row[:b * width] if half else  # native byte order
                            row[:b * width] + row[(b + 1) * width:])
                if key in pcs:
                    i = pcs.index(key)
                    i += i >= b
                    hits.append((i, b, u) if i < b else (b, i, (N - u) % N))
        return min(hits)

    return total, first


def _serre_holds(family: SequenceFamily, popcounts: Iterable[int]) -> bool:
    """|2*N_0 - q - 1| <= (2d+1)*floor(2*sqrt(q)), N_0 = N - popcount, for each."""
    N, q = family.N, family.q
    serre = (2 * family.d + 1) * math.isqrt(4 * q)
    return all(abs(2 * (N - pc) - q - 1) <= serre for pc in popcounts)


def _extreme(N: int, bound: int, kind: str, counts: dict,
             first: Callable[[int], tuple]) -> tuple[int, tuple | None]:
    """The largest correlation in one kind's popcount counts and first(pc) at
    it, or (-N - 1, None) with no counts; first(pc) names the (i, u) or
    (i, j, u) where pc first occurs in witness order.  Correlation is
    N - 2*popcount, so the extreme popcounts are the extreme correlations,
    and both are held to |c| <= bound, the largest correlation checked first.
    """
    if not counts:
        return -N - 1, None
    lo = min(counts)
    for pc in (lo, max(counts)):
        if abs(N - 2 * pc) > bound:
            raise BoundViolationError(f"|{N - 2 * pc}| > bound {bound} at {kind} = {first(pc)}")
    return N - 2 * lo, first(lo)


def family_correlation(family: SequenceFamily, sampled: int | None = None,
                       seed: int = 0) -> CorrelationReport:
    """Max correlation with witnesses; asserts the family bound.

    sampled=None runs the exhaustive sweep over all pairs and delays
    (subject to the budget gate); sampled=k probes k uniform (i, j, u)
    cross triples and still sweeps every autocorrelation.  Witnesses are
    the first maximiser in (i, u) and (i, j, u) order, or in draw order
    when sampled.  The autocorrelations are checked against the bound row
    by row, before any cross-correlation.  Each kind is folded once, so a
    cross violation names the first (i, j, u), or the first draw, at the
    extreme out of bound, the largest correlation checked first.
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

    def probes() -> tuple[dict, dict]:
        """The probes' popcount counts, and their first draws at the lowest
        and the highest popcount, drawn _SAMPLE_BLOCK at a time; a global
        extreme first occurs in a block where it is that block's extreme.
        Random(seed).randrange(n), inlined: draw n.bit_length() bits until below n."""
        draw, mask, counts, firsts = random.Random(seed).getrandbits, (1 << N) - 1, Counter(), {}
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
            block = Counter(pcs)
            counts.update(block)
            for pc in (min(block), max(block)):
                firsts.setdefault(pc, draws[pcs.index(pc)])
        return dict(counts), {pc: firsts[pc] for pc in (min(counts), max(counts))}
    auto, first, probed = _auto_transform(planes, N, probes if mode == "sampled" else None)
    if bad := [pc for pc in auto if abs(N - 2 * pc) > bound]:
        i = min(map(first, bad))[0]  # the first row out of bound raises on its own extremes
        row, row_first, _ = _auto_transform([bits[i]], N)
        _extreme(N, bound, "auto (i, u)", row, lambda pc: (i, row_first(pc)[1]))
    max_auto, auto_witness = _extreme(N, bound, "auto (i, u)", auto, first)
    cross, first = _cross_transform(planes, N) if exhaustive else (Counter(), None)
    if probed:  # after every autocorrelation
        cross, first = Counter(probed[0]), probed[1].get
    max_cross, cross_witness = _extreme(N, bound, "cross (i, j, u)", cross, first)
    return CorrelationReport(  # max_cross is -N - 1 at M = 1, below every correlation
        N=N, M=M, bound=bound, max_auto=max_auto, max_cross=max_cross if M > 1 else None,
        cor=max(max_auto, max_cross), histogram={N - 2 * pc: k for pc, k in (auto + cross).items()},
        auto_witness=auto_witness, cross_witness=cross_witness, mode=mode,
        identities_ok=_serre_holds(family, auto + cross),
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
    implies |A_u| <= the family bound.  Exhaustive; family_correlation's
    identities_ok holds the cross values to it as well.
    """
    return _serre_holds(family, _auto_transform(family.planes, family.N)[0])
