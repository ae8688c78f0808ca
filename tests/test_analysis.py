"""Correlation sweeps, cyclic linear complexity, and bound checks."""

import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cached_family, serre_breaking_family
from ecseq import analysis
from ecseq.analysis import (BoundViolationError, corr_bound,
                            counting_identity_check, exhaustive_allowed,
                            family_correlation, family_linear_complexity,
                            lc_bound_ceil, lc_bound_check)
from ecseq.family import SequenceFamily
from ecseq.gf2 import ValidationError, clmul, poly_gcd, span
from oracles import (auto_report, brute_lc, corr, counter_cross_transform, rotate,
                     sampled_report, serre_failures)


def bits_and_delay(max_n=64):
    return st.integers(2, max_n).flatmap(
        lambda N: st.tuples(st.just(N),
                            st.integers(0, (1 << N) - 1),
                            st.integers(0, (1 << N) - 1),
                            st.integers(0, N - 1)))


@given(bits_and_delay())
def test_correlation_matches_naive_and_parity(args):
    # the oracles' rotate, bit by bit, and the correlation it gives
    N, a, b, u = args
    r = rotate(b, u, N)
    assert all((r >> j) & 1 == (b >> (j + u) % N) & 1 for j in range(N))
    c = N - 2 * (a ^ r).bit_count()
    assert c == corr(a, b, u, N)
    assert (c - N) % 2 == 0
    assert -N <= c <= N


@given(bits_and_delay())
def test_cross_symmetry(args):
    # C_u(a, b) = C_{N-u}(b, a): the exhaustive sweep reads u <= N/2 only
    N, a, b, u = args
    assert (a ^ rotate(b, u, N)).bit_count() == (b ^ rotate(a, N - u, N)).bit_count()


@given(bits_and_delay())
def test_rotate_composition(args):
    N, a, _, u = args
    assert rotate(a, 0, N) == a and rotate(a, N, N) == a
    assert rotate(rotate(a, u, N), N - u, N) == a


def test_autocorrelation_basics():
    N = 13
    assert corr(0, 0, 5, N) == N            # constant sequence
    assert corr((1 << N) - 1, (1 << N) - 1, 3, N) == N
    s = 0b1011001
    assert corr(s, s, 2, 7) == corr(s, s, 5, 7)


def test_corr_bound_values():
    assert corr_bound(64, 8, 2) == 88
    assert corr_bound(64, -1, 3) == 113
    assert corr_bound(8, 4, 2) == 29  # floor(2*sqrt(8)) = 5


def test_family_correlation_matches_naive_oracle():
    fam = cached_family(3, 4, 2)
    rep = family_correlation(fam)
    N, M = fam.N, fam.M
    naive_max_auto = max(corr(s, s, u, N)
                         for s in fam.bits for u in range(1, N))
    naive_max_cross = max(corr(fam.bits[i], fam.bits[j], u, N)
                          for i in range(M) for j in range(M) if i != j
                          for u in range(N))
    assert rep.max_auto == naive_max_auto
    assert rep.max_cross == naive_max_cross
    assert rep.cor == max(naive_max_auto, naive_max_cross) <= rep.bound
    assert sum(rep.histogram.values()) == M * (N - 1) + M * (M - 1) * N
    i, u = rep.auto_witness
    assert corr(fam.bits[i], fam.bits[i], u, N) == rep.max_auto
    i, j, u = rep.cross_witness
    assert corr(fam.bits[i], fam.bits[j], u, N) == rep.max_cross


def naive_report(fam):
    """Histogram, maxima and first (i, u) / (i, j, u) maximisers from a
    loop over every delay and ordered pair."""
    N, M, bits = fam.N, fam.M, fam.bits
    hist = Counter()
    max_auto = max_cross = -N - 1
    auto_wit = cross_wit = None
    for i in range(M):
        for u in range(1, N):
            c = corr(bits[i], bits[i], u, N)
            hist[c] += 1
            if c > max_auto:
                max_auto, auto_wit = c, (i, u)
    for i in range(M):
        for j in range(M):
            if i == j:
                continue
            for u in range(N):
                c = corr(bits[i], bits[j], u, N)
                hist[c] += 1
                if i < j and c > max_cross:
                    max_cross, cross_wit = c, (i, j, u)
    return dict(hist), max_auto, auto_wit, max_cross, cross_wit


@pytest.mark.parametrize("n,t,d", [(5, 8, 2), (6, 8, 2), (3, 4, 3)])
def test_family_correlation_kernel_matches_naive_loop(n, t, d):
    fam = cached_family(n, t, d)
    hist, max_auto, auto_wit, max_cross, cross_wit = naive_report(fam)
    rep = family_correlation(fam)
    assert rep.histogram == hist
    assert (rep.max_auto, rep.auto_witness) == (max_auto, auto_wit)
    assert (rep.max_cross, rep.cross_witness) == (max_cross, cross_wit)
    # each maximum is attained beyond its mirror image (u <-> N-u, or
    # (i, j, u) <-> (j, i, N-u)), so the first-in-order rule is exercised
    assert hist[max_auto] > 2 and hist[max_cross] > 2


@st.composite
def lanes_and_width(draw):
    """w in 1..15 and up to 70 16-bit lanes, many of them within 2 of 2^w - 1
    in their low w bits, under any high bits."""
    w = draw(st.integers(1, 15))
    near = st.tuples(st.integers(-2, 1), st.integers(0, 0xFFFF >> w)).map(
        lambda e: ((1 << w) - 1 + e[0]) % (1 << w) | e[1] << w)
    return w, draw(st.lists(st.integers(0, 0xFFFF) | near, max_size=70))


@settings(max_examples=200, deadline=None)
@given(lanes_and_width())
@example((9, [0xFFFF] * 9 + [273, 0, 511, 512]))
def test_lane_counter_matches_counter(w_lanes):
    # lengths that are no multiple of 8 leave pad lanes in the last block
    w, lanes = w_lanes
    raw = b"".join(v.to_bytes(2, "little") for v in lanes)
    counts = analysis._lane_counter(len(lanes), w)(raw)
    assert dict(counts) == dict(Counter(v & (1 << w) - 1 for v in lanes))


@pytest.mark.parametrize("n,t,d", [(8, -16, 2), (8, 16, 2), (4, -1, 3), (2, -2, 2)])
def test_cross_transform_matches_counter_kernel(monkeypatch, n, t, d):
    # N = 241 (w = 8) and N = 273 (w = 9) at M = 255, a d = 3 family and the
    # smallest; every delay's counts, then the report with its witnesses
    fam = cached_family(n, t, d)
    total, first, per_u = counter_cross_transform(list(fam.planes), fam.N)
    seen, lane_counter = [], analysis._lane_counter

    def recording(lanes, w):
        count = lane_counter(lanes, w)
        return lambda raw: seen.append(count(raw)) or seen[-1]
    monkeypatch.setattr(analysis, "_lane_counter", recording)
    report = family_correlation(fam).as_dict()
    assert [dict(c) for c in seen] == [dict(c) for c in per_u]
    monkeypatch.setattr(analysis, "_cross_transform", lambda planes, N: (total, first))
    assert family_correlation(fam).as_dict() == report


@st.composite
def planes_of(draw, N, max_size):
    """Planes of length N, the last possibly a combination of the others
    (zero included), so that span(planes)[1:] has zero and duplicate rows."""
    planes = draw(st.lists(st.integers(0, (1 << N) - 1), min_size=1, max_size=max_size))
    if draw(st.booleans()):
        planes.append(span(planes)[draw(st.integers(0, (1 << len(planes)) - 1))])
    return planes


@st.composite
def row_families(draw):
    # rows span(planes)[1:] of up to 3 planes: zero rows, duplicates and
    # rank-deficient families arise along with full-rank ones
    N = draw(st.integers(2, 48))
    return SequenceFamily(n=12, t=0, d=3, N=N, planes=tuple(draw(planes_of(N, 2))))


@settings(max_examples=150, deadline=None)
@given(row_families())
def test_exhaustive_report_matches_naive_loop_on_any_rows(fam):
    # n=12, d=3 gives bound 896 >= N, so no row ever violates it
    hist, max_auto, auto_wit, max_cross, cross_wit = naive_report(fam)
    rep = family_correlation(fam)
    assert rep.histogram == hist
    assert (rep.max_auto, rep.auto_witness) == (max_auto, auto_wit)
    assert (rep.max_cross, rep.cross_witness) == ((max_cross, cross_wit) if fam.M > 1
                                                  else (None, None))


@pytest.mark.parametrize("N", [2, 3, 4, 7, 8, 63, 64, 100, 101])
def test_autocorrelation_half_sweep_matches_full_sweep(N):
    # n=12, d=3 gives bound 896 >= N, so random rows never violate it
    rng = random.Random(N)
    rows = [rng.randrange(1 << N) for _ in range(8)]
    rows.append(int("01" * N, 2) & ((1 << N) - 1))  # period 2: ties at many u
    for s in rows:
        full = [corr(s, s, u, N) for u in range(1, N)]
        rep = family_correlation(SequenceFamily(n=12, t=0, d=3, N=N, planes=(s,)))
        assert rep.histogram == Counter(full)
        assert rep.max_auto == max(full)
        assert rep.auto_witness == (0, 1 + full.index(max(full)))
    # sampled mode builds only the rotations u <= N/2
    fam = SequenceFamily(n=12, t=0, d=3, N=N, planes=tuple(rows[:3] + rows[-1:]))
    exhaustive, sampled = family_correlation(fam), family_correlation(fam, sampled=1)
    assert (sampled.max_auto, sampled.auto_witness) == (exhaustive.max_auto,
                                                        exhaustive.auto_witness)
    assert sum(sampled.histogram.values()) == fam.M * (N - 1) + 1


@pytest.mark.parametrize("N", [40, 41])
def test_autocorrelation_violation_location(N):
    # s = 0101...: |A_u| is far over the q=4 bound 21 at both extremes; the
    # report names the first u of the maximum, which is checked first
    s = int("01" * N, 2) & ((1 << N) - 1)
    fake = SequenceFamily(n=2, t=1, d=2, N=N, planes=(s,))
    full = [corr(s, s, u, N) for u in range(1, N)]
    assert max(full) > 21 and min(full) < -21
    first = 1 + full.index(max(full))
    with pytest.raises(BoundViolationError, match=rf"auto \(i, u\) = \(0, {first}\)"):
        family_correlation(fake)


def test_auto_violation_names_the_first_rows_own_extreme():
    # row 0 is the first row out of the q=4 bound 21, with A_u = 28 at u = 20
    # and -28 at u = 13; the family's largest |A_u| is row 1's 32 at u = 22
    fam = SequenceFamily(n=2, t=1, d=2, N=44,
                         planes=(5623472543041, 6205872714699, 12436545372515))
    assert max(corr(fam.bits[1], fam.bits[1], u, 44) for u in range(1, 44)) == 32
    for sampled in (None, 1):
        with pytest.raises(BoundViolationError,
                           match=re.escape("|28| > bound 21 at auto (i, u) = (0, 20)") + "$"):
            family_correlation(fam, sampled=sampled)


@st.composite
def span_families(draw):
    # q=4 bound 21, so N > 21 may violate
    N = draw(st.integers(2, 48))
    return SequenceFamily(n=2, t=1, d=2, N=N, planes=tuple(draw(planes_of(N, 3))))


@settings(max_examples=150, deadline=None)
@given(span_families())
def test_span_family_auto_report_matches_per_row_oracle(fam):
    want = auto_report(fam, corr_bound(fam.q, fam.t, fam.d))
    for sampled in (None, 1):
        if isinstance(want, str):
            with pytest.raises(BoundViolationError, match=re.escape(want) + "$"):
                family_correlation(fam, sampled=sampled)
            continue
        try:
            rep = family_correlation(fam, sampled=sampled)
        except BoundViolationError as exc:  # every autocorrelation passed first
            assert " at cross (i, j, u) = " in str(exc)
        else:
            assert (rep.max_auto, rep.auto_witness) == want


def test_negative_correlation_violation_raises():
    fam = cached_family(7, 16, 2)
    N, s = fam.N, fam.bits[0]
    # planes s and ~rot(s, 1): C_u(s, ~rot(s, 1)) = -C_{u+1}(s, s), -N at
    # u = N - 1 and within the bound elsewhere, as is every autocorrelation
    fake = SequenceFamily(n=7, t=16, d=2, N=N, planes=(s, ~rotate(s, 1, N) & ((1 << N) - 1)))
    bound = corr_bound(fake.q, fake.t, fake.d)
    assert bound < N
    assert max(corr(s, fake.bits[1], u, N) for u in range(N)) <= bound
    assert max(abs(corr(r, r, u, N)) for r in fake.bits for u in range(1, N)) <= bound
    with pytest.raises(BoundViolationError,
                       match=re.escape(f"|-{N}| > bound {bound} at cross (i, j, u) = "
                                       f"(0, 1, {N - 1})") + "$"):
        family_correlation(fake)


def test_autocorrelations_are_checked_before_cross_correlations():
    # planes s and ~s: the pair (0, 1) is over the bound at u = 0, but every
    # autocorrelation is checked first, so row 2, all ones, is named
    fam = cached_family(7, 16, 2)
    N, s = fam.N, fam.bits[0]
    fake = SequenceFamily(n=7, t=16, d=2, N=N, planes=(s, ~s & ((1 << N) - 1)))
    assert fake.bits[2] == (1 << N) - 1
    with pytest.raises(BoundViolationError, match=r"auto \(i, u\) = \(2, 1\)"):
        family_correlation(fake)


@st.composite
def sampled_families(draw):
    # M = 2^k - 1 rows, k >= 2; N = 2^k is where n.bit_length() and
    # (n - 1).bit_length() part
    N = draw(st.integers(2, 70) | st.just(64))
    planes = draw(planes_of(N, 4).filter(lambda p: len(p) > 1))
    return SequenceFamily(n=12, t=0, d=3, N=N, planes=tuple(planes))


@settings(max_examples=150, deadline=None)
@given(sampled_families(), st.integers(1, 300), st.integers(0, 2**64))
@example(SequenceFamily(n=12, t=0, d=3, N=64,  # draws cross two probe blocks
                        planes=tuple(random.Random(r).getrandbits(64) for r in range(4))),
         2 * 4096 + 1, 7)
def test_sampled_probes_replay_randrange(fam, k, seed):
    # n=12, d=3 gives bound 896 >= N, so no row ever violates it
    want = sampled_report(fam, k, seed)
    rep = family_correlation(fam, sampled=k, seed=seed)
    assert {key: getattr(rep, key) for key in want} == want


def test_sampled_mode_is_lower_estimate():
    fam = cached_family(3, 4, 2)
    full = family_correlation(fam)
    samp = family_correlation(fam, sampled=2000, seed=5)
    assert samp.mode == "sampled" and samp.samples == 2000
    assert samp.max_cross <= full.max_cross
    assert samp.max_auto == full.max_auto  # autocorrelations always full
    assert sum(samp.histogram.values()) == fam.M * (fam.N - 1) + 2000
    # determinism in the seed
    again = family_correlation(fam, sampled=2000, seed=5)
    assert again.cor == samp.cor and again.cross_witness == samp.cross_witness


def test_budget_gate(monkeypatch):
    big = SequenceFamily(n=9, t=0, d=2, N=513, planes=(0,) * 9)  # M = 511; the gate reads no row
    monkeypatch.delenv("ECSEQ_BUDGET_MS", raising=False)
    assert not exhaustive_allowed(big)
    monkeypatch.setenv("ECSEQ_BUDGET_MS", "10000000")
    assert exhaustive_allowed(big)
    monkeypatch.setenv("ECSEQ_BUDGET_MS", "1")
    assert not exhaustive_allowed(big)
    monkeypatch.delenv("ECSEQ_BUDGET_MS")
    small = cached_family(3, 4, 2)
    assert exhaustive_allowed(small)
    # the default budget, by estimated time: (8,16,2) ~2.5 s and (5,-1,3)
    # ~4.8 s run exhaustively, (9,32,2) ~20 s and (6,-1,3) ~153 s do not
    for (n, t, d), allowed in {(8, 16, 2): True, (5, -1, 3): True,
                               (9, 32, 2): False, (6, -1, 3): False}.items():
        fam = SequenceFamily(n=n, t=t, d=d, N=(1 << n) + 1 + t, planes=(0,) * (n * (d - 1)))
        assert exhaustive_allowed(fam) is allowed, (n, t, d)


def test_single_sequence_family_degenerate():
    fam = cached_family(3, 4, 2)
    solo = SequenceFamily(n=3, t=4, d=2, N=13, planes=(fam.bits[0],))
    rep = family_correlation(solo)
    assert rep.max_cross is None and rep.cross_witness is None
    assert rep.cor == rep.max_auto


# -- cyclic linear complexity ------------------------------------------------

def one_plane_lc(s, N):
    """family_linear_complexity of the one-row family (s,), whose bound holds
    at any complexity (q = 4, t = 1, d = 2)."""
    fam = SequenceFamily(n=2, t=1, d=2, N=N, planes=(s,))
    return family_linear_complexity(fam).lc_per_sequence[0]


def test_lc_matches_brute_force_on_family():
    fam = cached_family(3, 4, 2)
    for s in fam.bits:
        assert one_plane_lc(s, fam.N) == brute_lc(s, fam.N)


def test_lc_matches_brute_force_random():
    rng = random.Random(11)
    for N in (2, 4, 5, 8, 13, 15):
        for _ in range(25):
            s = rng.randrange(1, 1 << N)
            assert one_plane_lc(s, N) == brute_lc(s, N), (N, bin(s))


def test_lc_edge_cases():
    assert one_plane_lc((1 << 13) - 1, 13) == 1
    assert one_plane_lc(1, 13) == 13
    with pytest.raises(ValidationError):
        one_plane_lc(0, 13)


def test_lc_games_chan_matches_gcd_formula():
    # N = 2^k reads the low zero bits of s(x + 1); multiples of (x + 1)^e reach
    # every complexity below N, and the zero row is refused as at any other N
    rng = random.Random(16)
    for N in (1 << k for k in range(11)):
        rows = [1, (1 << N) - 1] + [rng.randrange(1, 1 << N) for _ in range(20)]
        for e in range(N):
            s = rng.randrange(1, 1 << N - e)
            for _ in range(e):
                s ^= s << 1
            rows.append(s)
        for s in rows:
            want = N + 1 - poly_gcd(s, 1 << N | 1).bit_length()
            assert one_plane_lc(s, N) == want, (N, s)
        with pytest.raises(ValidationError):
            one_plane_lc(0, N)


def test_lc_bound_exact_arithmetic():
    # q=64, t=8, d=2: bound = 33/32, so lc >= 2 required
    assert not lc_bound_check(1, 64, 8, 2)
    assert lc_bound_check(2, 64, 8, 2)
    assert lc_bound_ceil(64, 8, 2) == 2
    # nonpositive numerator: vacuous
    assert lc_bound_check(0, 64, -1, 3)
    assert lc_bound_ceil(64, -1, 3) == 0
    # odd n: irrational sqrt(q), checked by squaring. q=8,t=4,d=2:
    # bound = (17 - 6*sqrt(8)) / (4*sqrt(8)) ~ 0.0028 -> lc >= 1
    assert not lc_bound_check(0, 8, 4, 2)
    assert lc_bound_ceil(8, 4, 2) == 1


def test_family_lc_report():
    fam = cached_family(3, 4, 2)
    rep = family_linear_complexity(fam)
    assert rep.lc_min == min(rep.lc_per_sequence)
    assert len(rep.lc_per_sequence) == fam.M
    assert lc_bound_check(rep.lc_min, fam.q, fam.t, fam.d)


def test_family_lc_zero_row_reported_as_zero():
    # N = 64 = 2^6, the d3-q64 length; q=64, t=-1, d=3 asks for lc >= 0
    s = random.Random(7).getrandbits(64)
    fam = SequenceFamily(n=6, t=-1, d=3, N=64, planes=(0, s))
    rep = family_linear_complexity(fam)
    lc = 64 + 1 - poly_gcd(s, 1 << 64 | 1).bit_length()
    assert rep.lc_per_sequence == [0, lc, lc]
    assert rep.lc_min == 0


def test_family_lc_zero_family_raises():
    # the all-zero (3, 4, 2) planes: no row has a linear complexity
    with pytest.raises(ValidationError, match="zero sequence family"):
        family_linear_complexity(SequenceFamily(n=3, t=4, d=2, N=13, planes=(0, 0, 0)))


@st.composite
def lc_families(draw):
    # span(planes)[1:] as gen_family writes them: planes that share a factor
    # of x^N + 1, here (x + 1)^e or x^3 + x + 1 (a factor when 7 | N), give
    # the modulus G a positive degree, and dependent planes a zero product;
    # N = 16, 32 and 64 draw dependent planes often on the N = 2^k path
    N = draw(st.sampled_from([7, 13, 16, 21, 32, 34, 35, 63, 64]) | st.integers(2, 70))
    mask = (1 << N) - 1
    factor, e = draw(st.sampled_from([0b11, 0b1011])), draw(st.integers(0, 5))
    planes = []
    for p in draw(st.lists(st.integers(0, mask), min_size=1, max_size=5)):
        for _ in range(e):
            p = clmul(p, factor)
            while p > mask:
                p = (p & mask) ^ p >> N  # mod x^N + 1
        planes.append(p)
    if draw(st.booleans()):
        planes.append(span(planes)[draw(st.integers(0, (1 << len(planes)) - 1))])
    return SequenceFamily(n=2, t=1, d=2, N=N, planes=tuple(planes))


@settings(max_examples=300, deadline=None)
@given(lc_families())
def test_family_lc_matches_per_row_gcd(fam):
    N = fam.N
    if not any(fam.bits):
        with pytest.raises(ValidationError):
            family_linear_complexity(fam)
        return
    assert family_linear_complexity(fam).lc_per_sequence == [
        N + 1 - poly_gcd(s, 1 << N | 1).bit_length() if s else 0 for s in fam.bits]


def test_family_lc_bound_violation_detected():
    # the all-ones row has lc = 1, below the bound 2 at q=64, t=8
    fake = SequenceFamily(n=6, t=8, d=2, N=73, planes=((1 << 73) - 1, 1))
    with pytest.raises(BoundViolationError, match="lc_min = 1 below"):
        family_linear_complexity(fake)


def test_counting_identities():
    for fam in (cached_family(3, 4, 2), cached_family(3, 4, 3)):
        assert counting_identity_check(fam)
        assert family_correlation(fam).identities_ok == counting_identity_check(fam)


def test_counting_identity_failure_at_two_delays_is_found():
    fam = serre_breaking_family()
    N = fam.N
    assert serre_failures(fam) == [(255, 7), (255, 538)]
    assert (max(abs(corr(s, s, u, N)) for s in fam.bits for u in range(1, N))
            <= corr_bound(fam.q, fam.t, fam.d) == 257)
    assert counting_identity_check(fam) is False
    assert family_correlation(fam, sampled=10_000).identities_ok is False


def test_bound_violation_raises():
    # a forged family whose rows cannot satisfy the q=4 bound
    rng = random.Random(3)
    N = 102
    planes = [rng.randrange(1, 1 << N) for _ in range(3)] + [(1 << N) - 1]
    fake = SequenceFamily(n=2, t=1, d=2, N=N, planes=tuple(planes))
    with pytest.raises(BoundViolationError):
        family_correlation(fake)
