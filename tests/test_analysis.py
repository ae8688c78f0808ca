"""Correlation sweeps, cyclic linear complexity, and bound checks."""

import os
import random
import re
import threading
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
from ecseq.family import SequenceFamily, family_sizes
from ecseq.gf2 import MIN_DEGREE, ValidationError, clmul, poly_gcd, span
from oracles import (auto_report, brute_lc, columns, corr, counter_cross_transform,
                     reflect, rotate, sampled_report, serre_failures)


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
    N, M, bits = fam.N, fam.M, fam.bits
    naive_max_auto = max(corr(s, s, u, N)
                         for s in bits for u in range(1, N))
    naive_max_cross = max(corr(bits[i], bits[j], u, N)
                          for i in range(M) for j in range(M) if i != j
                          for u in range(N))
    assert rep.max_auto == naive_max_auto
    assert rep.max_cross == naive_max_cross
    assert rep.cor == max(naive_max_auto, naive_max_cross) <= rep.bound
    assert sum(rep.histogram.values()) == M * (N - 1) + M * (M - 1) * N
    i, u = rep.auto_witness
    assert corr(bits[i], bits[i], u, N) == rep.max_auto
    i, j, u = rep.cross_witness
    assert corr(bits[i], bits[j], u, N) == rep.max_cross


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
    """w in 1..16, up to 70 lanes of (w + 7) // 8 bytes, many of them within 2
    of 2^w - 1 in their low w bits, under any high bits, and a chunk of 8, 16
    or 24 lanes, or the default."""
    w = draw(st.integers(1, 16))
    top = (1 << 8 * ((w + 7) // 8)) - 1
    near = st.tuples(st.integers(-2, 1), st.integers(0, top >> w)).map(
        lambda e: ((1 << w) - 1 + e[0]) % (1 << w) | e[1] << w)
    lanes = draw(st.lists(st.integers(0, top) | near, max_size=70))
    return w, lanes, draw(st.sampled_from([8, 16, 24, analysis._CHUNK]))


@settings(max_examples=200, deadline=None)
@given(lanes_and_width())
@example((9, [0xFFFF] * 9 + [273, 0, 511, 512], 8))
@example((8, [0xFF] * 9 + [17, 0, 255, 128], analysis._CHUNK))
def test_lane_counter_matches_counter(w_lanes):
    # lengths that are no multiple of 8 leave pad lanes in the last block, and
    # a small chunk puts chunk boundaries among the lanes
    w, lanes, chunk = w_lanes
    raw = b"".join(v.to_bytes((w + 7) // 8, "little") for v in lanes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_CHUNK", chunk)
        counts = analysis._lane_counter(len(lanes), w)(raw)
    assert dict(counts) == dict(Counter(v & (1 << w) - 1 for v in lanes))


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def on_three_cpus(monkeypatch, fam, **kwargs):
    """family_correlation(fam, **kwargs) where three CPUs are allowed and the
    fork threshold is 0, and whether any sweep forked."""
    forks, fork = [], os.fork
    monkeypatch.setattr(analysis, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    report = family_correlation(fam, **kwargs)
    assert no_child_left()
    return report, bool(forks)


@pytest.mark.parametrize("n,t,d", [(8, -16, 2), (8, 16, 2), (4, -1, 3), (2, -2, 2)])
def test_cross_transform_matches_counter_kernel(monkeypatch, n, t, d):
    # N = 241 and N = 273 at M = 255 (byte lanes, the second held to the lane
    # sum), a d = 3 family and the smallest; every delay's counts, then the
    # report with its witnesses.  One CPU, so that every delay is counted in
    # this process and recorded here; then the same report from forked sweeps
    # (N = 3 leaves too few delays)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    fam = cached_family(n, t, d)
    total, first, per_u = counter_cross_transform(list(fam.planes), fam.N)
    seen, lane_counter = [], analysis._lane_counter

    def recording(lanes, w):
        count = lane_counter(lanes, w)
        # a copy, as the kernel subtracts the diagonal from what it gets in place
        return lambda raw: seen.append(count(raw)) or Counter(seen[-1])
    monkeypatch.setattr(analysis, "_lane_counter", recording)
    report = family_correlation(fam)
    # the d = 2 rows are mirrored, so a delay counts the lanes i < b, half of
    # the oracle's per_u; the d = 3 family's rows are not, so it counts every
    # lane, whose lanes i = b hold row i's autocorrelation at u
    halved = analysis._mirror(columns(fam.planes, fam.N)) is not None
    assert halved == (d == 2)
    bits, N = fam.bits, fam.N
    diagonal = [Counter((s ^ rotate(s, u, N)).bit_count() for s in bits) for u in range(N // 2 + 1)]
    assert [dict(c + c if halved else c) for c in seen] == [
        dict(c if halved else c + diag) for c, diag in zip(per_u, diagonal)]
    assert on_three_cpus(monkeypatch, fam) == (report, fam.N > 3)
    monkeypatch.setattr(analysis, "_cross_transform", lambda planes, N: (total, first))
    assert family_correlation(fam).as_dict() == report.as_dict()


def forged_planes(N: int, kind: str) -> list[int]:
    """Planes of length N from random.Random(N): four random ones; or, with
    three zero columns, two random ones, their XOR and ~rot(p0, 1); or p0,
    ~rot(p0, 1) (popcount N at a delay), p2 and p0 ^ p2; or p0 and ~rot(p0, 1)
    alone, where a carry leaves a lane below the last of its row.  The
    mirrored kinds take each p | reflect(p) about N // 3, so every row has
    that mirror: four of them, or m0, ~m0 (popcount N at u = 0) and m2."""
    rng, mask = random.Random(N), (1 << N) - 1
    p0, p1, p2, p3 = (rng.getrandbits(N) for _ in range(4))
    if kind == "random":
        return [p0, p1, p2, p3]
    if kind.startswith("mirrored"):
        m0, m1, m2, m3 = (p | reflect(p, N // 3, N) for p in (p0, p1, p2, p3))
        return [m0, m1, m2, m3] if kind == "mirrored" else [m0, ~m0 & mask, m2]
    flipped = ~rotate(p0, 1, N) & mask
    if kind == "zero columns":
        keep = mask ^ sum(1 << j for j in rng.sample(range(N), 3))
        return [p & keep for p in (p0, p1, p0 ^ p1, flipped)]
    return [p0, flipped, p2, p0 ^ p2] if kind == "complement" else [p0, flipped]


def test_d2_rows_share_a_mirror():
    # every d = 2 family at n <= 10 has one c with s_j = s_{(c-j) mod N} on
    # every row, checked row by row; (6, -1, 3) and four random planes have
    # no c that holds on every plane
    for n in range(MIN_DEGREE, 11):
        for t, d in family_sizes(n):
            if d == 2:
                fam = cached_family(n, t, d)
                c = analysis._mirror(columns(fam.planes, fam.N))
                assert c is not None and all(reflect(s, c, fam.N) == s for s in fam.bits)
    for planes, N in [(list(cached_family(6, -1, 3).planes), 64),
                      *((forged_planes(N, "random"), N) for N in (256, 273, 300, 511))]:
        assert analysis._mirror(columns(planes, N)) is None
        assert not any(all(reflect(p, c, N) == p for p in planes) for c in range(N))


@pytest.mark.parametrize("n,t", [(8, 16), (7, 16)])
def test_mirrored_half_sweep_matches_full_sweep(monkeypatch, n, t):
    # the lanes i < b, counted twice, give the report of every lane less the
    # diagonal, both witnesses included
    fam = cached_family(n, t, 2)
    M, lanes, lane_counter = fam.M, [], analysis._lane_counter
    monkeypatch.setattr(analysis, "_lane_counter", lambda k, w: lanes.append(k)
                        or lane_counter(k, w))
    half = family_correlation(fam)
    monkeypatch.setattr(analysis, "_mirror", lambda cols: None)
    assert family_correlation(fam) == half
    assert lanes == [M * (M - 1) // 2, M * M]


@pytest.mark.parametrize("kind", ["random", "zero columns", "complement", "pair",
                                  "mirrored", "mirrored complement"])
@pytest.mark.parametrize("N", [256, 273, 300, 511])
def test_byte_lanes_match_counter_kernel(monkeypatch, N, kind):
    # byte lanes at 256 <= N < 512, where a popcount can carry out of its
    # lane: the total and the first (i, j, u) at both extremes equal the
    # 16-bit oracle's, over forked sweeps; a sweep with any popcount above
    # 255, the diagonal's included, is rerun in 2-byte lanes (w = 9), and a
    # mirrored family counts only the lanes i < b in either width, any other
    # every lane
    planes = forged_planes(N, kind)
    total, first, _ = counter_cross_transform(planes, N)
    bits = span(planes)[1:]
    auto = max((s ^ rotate(s, u, N)).bit_count() for s in bits for u in range(N))
    calls, lane_counter = [], analysis._lane_counter
    monkeypatch.setattr(analysis, "_lane_counter", lambda lanes, w: calls.append((lanes, w))
                        or lane_counter(lanes, w))
    monkeypatch.setattr(analysis, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    got, got_first = analysis._cross_transform(planes, N)
    assert no_child_left()
    assert got == total
    assert [got_first(pc) for pc in (min(total), max(total))] == [
        first(pc) for pc in (min(total), max(total))]
    M, mirrored = len(bits), kind.startswith("mirrored")
    assert (analysis._mirror(columns(planes, N)) is not None) == mirrored
    assert calls == [(M * (M - 1) // 2 if mirrored else M * M, w)
                     for w in ([8, 9] if max(auto, *total) > 255 else [8])]
    if kind in ("complement", "pair", "mirrored complement"):
        assert max(total) == N


def test_sampled_report_equal_on_one_and_three_cpus(monkeypatch):
    fam = cached_family(9, 32, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = family_correlation(fam, sampled=1000)
    assert on_three_cpus(monkeypatch, fam, sampled=1000) == (one, True)


def test_dealt_recomputes_failed_shares_and_raises_here(monkeypatch):
    monkeypatch.setattr(analysis, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    parent, us = os.getpid(), range(3, 13)

    def in_parent_only(u):
        if os.getpid() != parent:
            raise RuntimeError("child")
        return {u % 4: u}
    assert analysis._dealt(in_parent_only, us) == ([{u % 4: u} for u in us], None)
    assert no_child_left()

    def fails_at_eight(u):  # 8 is in a child's share; the parent's recount raises
        if u == 8:
            raise ValueError(f"u = {u} in {os.getpid()}")
        return {u: 1}
    with pytest.raises(ValueError, match=f"u = 8 in {parent}$"):
        analysis._dealt(fails_at_eight, us)
    assert no_child_left()


def test_dealt_runs_the_side_job_in_its_own_child(monkeypatch):
    # three CPUs: the delays are dealt over this process and one child, and
    # the side job gets a child of its own; on one CPU it runs here, last
    monkeypatch.setattr(analysis, "_FORK_AFTER_S", 0)
    forks, fork, parent, us, order = [], os.fork, os.getpid(), range(3, 13), []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus, forked in [({0, 1, 2}, 2), ({0}, 0)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        forks.clear()
        counts, side = analysis._dealt(lambda u: order.append(u) or {u: os.getpid()}, us,
                                       lambda: order.append(None) or os.getpid())
        assert [c.keys() for c in counts] == [{u} for u in us]
        assert (side != parent, len(forks)) == (bool(forked), forked)
        assert no_child_left()
    assert order[-1] is None and order[-11:-1] == list(us)


def test_dealt_reruns_a_failed_side_job_here(monkeypatch):
    monkeypatch.setattr(analysis, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, us = os.getpid(), range(1, 6)

    def side():
        if os.getpid() != parent:
            raise RuntimeError("child")
        return [("here", 1)]
    assert analysis._dealt(lambda u: {u: 1}, us, side) == ([{u: 1} for u in us], [("here", 1)])
    assert no_child_left()

    def failing():
        raise ValueError(f"side in {os.getpid()}")
    with pytest.raises(ValueError, match=f"side in {parent}$"):  # the child's failure, rerun here
        analysis._dealt(lambda u: {u: 1}, us, failing)
    assert no_child_left()


def test_auto_violation_is_raised_before_a_probe_violation_on_both_paths(monkeypatch):
    # planes s and ~s: row 2, all ones, breaks the bound at every delay, and
    # the probes of the pair (0, 1) at u = 0 read -N, also out of bound; the
    # auto error comes first whether the probes run here or in a child
    fam = cached_family(7, 16, 2)
    N, s = fam.N, fam.bits[0]
    fake = SequenceFamily(n=7, t=16, d=2, N=N, planes=(s, ~s & ((1 << N) - 1)))
    assert -N in sampled_report(fake, 10_000, 0)["histogram"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(BoundViolationError, match=r"auto \(i, u\) = \(2, 1\)$"):
        family_correlation(fake, sampled=10_000)
    forks, fork = [], os.fork
    monkeypatch.setattr(analysis, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    with pytest.raises(BoundViolationError, match=r"auto \(i, u\) = \(2, 1\)$"):
        family_correlation(fake, sampled=10_000)
    assert forks and no_child_left()


def test_sweep_without_fork_runs_serially(monkeypatch):
    fam, tries = cached_family(4, -1, 3), []
    serial = family_correlation(fam)

    def fork():
        tries.append(1)
        raise OSError("no fork")
    monkeypatch.setattr(analysis, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", fork)
    assert family_correlation(fam) == serial
    assert tries and no_child_left()
    # a process that runs a second thread does not fork at all
    tries.clear()
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert family_correlation(fam) == serial
    finally:
        done.set()
        thread.join(timeout=10)
    assert not tries and not thread.is_alive()


def test_no_child_outlives_a_raising_sweep(monkeypatch):
    # the parent raises in its own share while its children still count theirs
    monkeypatch.setattr(analysis, "_FORK_AFTER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    parent, calls, lane_counter = os.getpid(), [], analysis._lane_counter

    def failing(lanes, w):
        count = lane_counter(lanes, w)

        def counted(raw):
            calls.append(1)
            if os.getpid() == parent and len(calls) > 1:
                raise RuntimeError("parent share")
            return count(raw)
        return counted
    monkeypatch.setattr(analysis, "_lane_counter", failing)
    with pytest.raises(RuntimeError, match="parent share"):
        family_correlation(cached_family(8, 16, 2))
    assert no_child_left()


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
    row1 = fam.bits[1]
    assert max(corr(row1, row1, u, 44) for u in range(1, 44)) == 32
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


def assert_negative_violation_raises(n, t):
    fam = cached_family(n, t, 2)
    N, s = fam.N, fam.bits[0]
    # planes s and ~rot(s, 1): C_u(s, ~rot(s, 1)) = -C_{u+1}(s, s), -N at
    # u = N - 1 and within the bound elsewhere, as is every autocorrelation
    fake = SequenceFamily(n=n, t=t, d=2, N=N, planes=(s, ~rotate(s, 1, N) & ((1 << N) - 1)))
    bound = corr_bound(fake.q, fake.t, fake.d)
    assert bound < N
    row1 = fake.bits[1]
    assert max(corr(s, row1, u, N) for u in range(N)) <= bound
    assert max(abs(corr(r, r, u, N)) for r in fake.bits for u in range(1, N)) <= bound
    with pytest.raises(BoundViolationError,
                       match=re.escape(f"|-{N}| > bound {bound} at cross (i, j, u) = "
                                       f"(0, 1, {N - 1})") + "$"):
        family_correlation(fake)


def test_negative_correlation_violation_raises():
    assert_negative_violation_raises(7, 16)


def test_negative_correlation_violation_raises_at_q256():
    # N = 273: the popcount 273 carries out of its byte lane, which the lane
    # sum catches, and the sweep reruns in 2-byte lanes to name the witness
    assert_negative_violation_raises(8, 16)


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


def test_sampled_results_do_not_depend_on_the_block_size(monkeypatch):
    # probes drawn 1 and 4096 at a time give the same report on a valid family
    # and the same error on a forged one: three random planes of length 61,
    # bound 21 and autocorrelations within 19, where seed 1's first probe out
    # of bound reads C = -23 at (5, 0, 12), but the largest correlation drawn
    # is 25, first at (5, 1, 45), which the error names as exhaustive mode would
    rng = random.Random(61)
    planes = tuple(rng.getrandbits(61) for _ in range(3))
    forged = SequenceFamily(n=2, t=1, d=2, N=61, planes=planes)
    seen = []
    for block in (1, 4096):
        monkeypatch.setattr(analysis, "_SAMPLE_BLOCK", block)
        with pytest.raises(BoundViolationError) as err:
            family_correlation(forged, sampled=2000, seed=1)
        seen.append((family_correlation(cached_family(7, 16, 2), sampled=3000, seed=4),
                     str(err.value)))
    assert seen[0] == seen[1]
    assert seen[0][1] == "|25| > bound 21 at cross (i, j, u) = (5, 1, 45)"


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


@pytest.mark.parametrize("sampled", [None, 1000])
def test_serre_form_covers_cross_values(monkeypatch, sampled):
    # (7, 16, 2): N = 145, bound 126, Serre limit 110.  A cross popcount of 22
    # is C = 101, within the bound, but |C + t| = 117 breaks the Serre form;
    # it is added to the exhaustive sweep's counts, or to the probes' counts
    # as their lowest popcount, first drawn as (0, 1, 0)
    fam = cached_family(7, 16, 2)
    assert family_correlation(fam, sampled=sampled).identities_ok
    cross, auto = analysis._cross_transform, analysis._auto_transform

    def with_22(planes, N):
        total, first = cross(planes, N)
        return total + Counter({22: 1}), lambda pc: (0, 1, 0) if pc == 22 else first(pc)

    def probed_22(planes, N, side=None):
        total, first, probed = auto(planes, N, side)
        return total, first, probed and ({**probed[0], 22: 1}, {**probed[1], 22: (0, 1, 0)})
    monkeypatch.setattr(analysis, "_cross_transform", with_22)
    monkeypatch.setattr(analysis, "_auto_transform", probed_22)
    report = family_correlation(fam, sampled=sampled)
    assert (report.max_cross, report.bound, report.identities_ok) == (101, 126, False)


def test_bound_violation_raises():
    # a forged family whose rows cannot satisfy the q=4 bound
    rng = random.Random(3)
    N = 102
    planes = [rng.randrange(1, 1 << N) for _ in range(3)] + [(1 << N) - 1]
    fake = SequenceFamily(n=2, t=1, d=2, N=N, planes=tuple(planes))
    with pytest.raises(BoundViolationError):
        family_correlation(fake)
