"""Arithmetic in GF(2^m) on integer-coded polynomials.

An element of GF(2^m) is a plain Python int whose bit i is the coefficient
of x^i (low bit = constant term).  A :class:`FieldContext` fixes the modulus
and owns all arithmetic; elements carry no state of their own, so contexts
are safely shareable and every operation is a pure function of its inputs.

A base field builds log/exp tables on construction, for table-lookup
arithmetic.  An extension is carry-less: it multiplies by clmul and inverts
by extended Euclid.  Every GF(2)-linear map (reduction mod the modulus,
q-Frobenius, square root, embedding, the quadratic solver's root map) is a
:func:`linear_map`, two :func:`span` tables of 2^(m/2) entries each.  Only
a base field builds log/exp tables (:meth:`FieldContext.build_tables`);
MAX_EXT_DEGREE bounds an extension, checked by :func:`make_ext`, and
family.family_sizes lists only families within it.

Field elements serialize as lowercase hex of the coefficient bit vector;
a context serializes as ``{"n": ..., "modulus": <hex>}``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from operator import add, sub

MIN_DEGREE = 2
MAX_DEGREE = 12
MAX_EXT_DEGREE = 20  # q^d <= 2^20: the largest extension, and the place oracle's longest sequence


class ValidationError(ValueError):
    """Bad user-supplied parameters (out of range, inadmissible, ...)."""


# ----------------------------------------------------------------------
# GF(2)[x] helpers on integer-coded polynomials.

def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    if a.bit_count() < b.bit_count():
        a, b = b, a
    r = 0
    while b:  # one shifted copy per set bit of the sparser factor
        low = b & -b
        r ^= a << low.bit_length() - 1
        b ^= low
    return r


def poly_mod(a: int, mod: int) -> int:
    mb = mod.bit_length()
    ab = a.bit_length()
    while ab >= mb:
        a ^= mod << (ab - mb)
        ab = a.bit_length()
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def span(vectors: list[int]) -> list[int]:
    """Entry m is the XOR of the vectors that the bits of m select."""
    out = [0]
    for v in vectors:
        out += [e ^ v for e in out]
    return out


def linear_map(images: list[int]) -> Callable[[int], int]:
    """The GF(2)-linear map sending 1 << i to images[i], by two half-width spans."""
    h = len(images) // 2
    lo, hi, low = span(images[:h]), span(images[h:]), (1 << h) - 1
    return lambda a: lo[a & low] ^ hi[a >> h]


def walsh_hadamard(v: list[int]) -> None:
    """In place, v[c] becomes sum_x v[x] * (-1)^popcount(c & x), len(v) = 2^k, for
    any ints, packed lanes included.  Stage h pairs v[i] with v[i + h] by h
    strided slices or len/2h contiguous ones, whichever is fewer."""
    L = len(v)
    for h in (1 << k for k in range(L.bit_length() - 1)):
        step = 2 * h
        if h <= L // step:
            halves = [(slice(o, L, step), slice(o + h, L, step)) for o in range(h)]
        else:
            halves = [(slice(i, i + h), slice(i + h, i + step)) for i in range(0, L, step)]
        for a, b in halves:
            lo, hi = v[a], v[b]
            v[a] = map(add, lo, hi)
            v[b] = map(sub, lo, hi)


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs only)."""
    f: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            f[p] = f.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        f[m] = f.get(m, 0) + 1
    return f


def is_irreducible(p: int) -> bool:
    """Rabin test for a GF(2)[x] polynomial coded as an int."""
    m = p.bit_length() - 1
    if m < 1:
        return False
    if m == 1:
        return True
    if p & 1 == 0:  # divisible by x
        return False
    # x^(2^i) mod p for i = 1..m
    pow2 = [2]
    cur = 2
    for _ in range(m):
        cur = poly_mod(clmul(cur, cur), p)
        pow2.append(cur)
    if pow2[m] != 2:
        return False
    for r in factorize(m):
        if poly_gcd(pow2[m // r] ^ 2, p) != 1:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible of degree m (int comparison)."""
    for p in range(1 << m, 1 << (m + 1)):
        if is_irreducible(p):
            return p
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ----------------------------------------------------------------------
# GF(2) linear systems (bit-vector columns).

class GF2Solver:
    """Solve ``sum_j z_j * col_j = w`` over GF(2) for fixed columns.

    Columns and right-hand sides are bit-vector ints; a solution is an int
    whose bit j selects column j.
    """

    def __init__(self, cols: list[int]):
        self.pivots: list[tuple[int, int, int]] = []  # (lead bit, value, combo)
        self.null_combos: list[int] = []
        for j, c in enumerate(cols):
            combo = 1 << j
            for pb, pv, pc in self.pivots:
                if (c >> pb) & 1:
                    c ^= pv
                    combo ^= pc
            if c == 0:
                self.null_combos.append(combo)
                continue
            pb = c.bit_length() - 1
            # keep every pivot free of the other pivots' leading bits
            self.pivots = [
                (qb, qv ^ c, qc ^ combo) if (qv >> pb) & 1 else (qb, qv, qc)
                for qb, qv, qc in self.pivots
            ]
            self.pivots.append((pb, c, combo))

    def lookup(self, width: int) -> Callable[[int], int]:
        """The solution map on width-bit w in the column span, as a linear_map:
        the reduced pivots each fire on their own lead bit of w (linearly)."""
        images = [0] * width
        for pb, _, pc in self.pivots:
            images[pb] = pc
        return linear_map(images)


# ----------------------------------------------------------------------
# Field contexts.

class FieldContext:
    """GF(2^n) with a fixed modulus; all ops take and return ints."""

    def __init__(self, modulus: int):
        if not is_irreducible(modulus):
            raise ValidationError(f"modulus {modulus:#x} is not irreducible")
        self.modulus = modulus
        self.n = modulus.bit_length() - 1
        self.q = 1 << self.n
        self._exp: list[int] = []
        self._log: list[int | None] = []
        # the bits x^n.. of a carry-less product reduce GF(2)-linearly
        self._reduce = linear_map([poly_mod(1 << self.n + i, modulus) for i in range(self.n - 1)])
        self._init_arithmetic()
        self.trace_mask = self._compute_trace_mask()
        # z -> z^2 + z, linear onto the trace-0 hyperplane: one root of z^2 + z = w
        self._as_root = GF2Solver([self.mul(1 << i, 1 << i) ^ (1 << i)
                                   for i in range(self.n)]).lookup(self.n)

    def _init_arithmetic(self) -> None:
        self.build_tables()

    # -- construction helpers ------------------------------------------

    def _compute_trace_mask(self) -> int:
        mask = 0
        for i in range(self.n):
            acc = t = 1 << i
            for _ in range(self.n - 1):
                t = self.mul(t, t)
                acc ^= t
            mask |= acc << i  # the trace is 0 or 1
        return mask

    def build_tables(self) -> None:
        """Build log/exp tables over a primitive element (idempotent)."""
        if self._exp:
            return
        order = self.q - 1
        gamma = self.primitive_element()
        # a -> a*gamma is GF(2)-linear; its lookup stays inline rather than a
        # linear_map call, which would add a function call to each of the
        # loop's q - 1 steps (2^20 at the cap)
        images = [self._clmul_mod(1 << i, gamma) for i in range(self.n)]
        h = self.n // 2
        lo, hi, low = span(images[:h]), span(images[h:]), (1 << h) - 1
        exp = [0] * order
        log: list[int | None] = [None] * self.q
        acc = 1
        for i in range(order):
            exp[i] = acc
            log[acc] = i
            acc = lo[acc & low] ^ hi[acc >> h]
        assert acc == 1
        self._exp, self._log = exp, log

    def primitive_element(self) -> int:
        """The smallest primitive element, by table-free powers."""
        return next(g for g in range(2, self.q) if all(
            self._clmul_pow(g, (self.q - 1) // p) != 1 for p in factorize(self.q - 1)))

    def _clmul_mod(self, a: int, b: int) -> int:
        """a*b without tables: poly_mod(clmul(a, b), modulus)."""
        p = clmul(a, b)
        return (p & self.q - 1) ^ self._reduce(p >> self.n)

    def _clmul_pow(self, a: int, e: int) -> int:
        """a^e by carry-less square-and-multiply (inverting first if e < 0)."""
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self._clmul_mod(r, a)
            a = self._clmul_mod(a, a)
            e >>= 1
        return r

    # -- arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inversion of zero")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def sqrt(self, a: int) -> int:
        # squaring is bijective in characteristic 2
        return self.pow(a, self.q >> 1)

    def trace(self, a: int) -> int:
        """Absolute trace GF(2^n) -> GF(2)."""
        return (a & self.trace_mask).bit_count() & 1

    def elements(self) -> range:
        return range(self.q)

    def trace_agreements(self, f: list[int]) -> list[int]:
        """cnt[c] = #{x : f[x] == Tr(c*x)} for every c, from the bits f[0..q-1].

        Tr(c*x) is the parity of L(c) & x (bit i of L(c) is Tr(c*2^i)), so
        cnt[c] = (q + F[L(c)]) / 2 with F the Walsh-Hadamard transform of (-1)^f.
        """
        v = [1 - 2 * b for b in f]
        walsh_hadamard(v)
        masks = span([sum(self.trace(self.mul(1 << j, 1 << i)) << i for i in range(self.n))
                      for j in range(self.n)])  # masks[c] = L(c), by linearity from L(2^j)
        return [(self.q + v[m]) >> 1 for m in masks]

    # -- char-2 quadratics ---------------------------------------------

    def solve_quadratic(self, c: int, u: int) -> tuple[int, ...]:
        """All roots y of y^2 + c*y = u, sorted."""
        if c == 0:
            return (self.sqrt(u),)
        w = self.div(u, self.mul(c, c))
        if self.trace(w):
            return ()
        y0 = self.mul(c, self._as_root(w))
        y1 = y0 ^ c
        return (y0, y1) if y0 < y1 else (y1, y0)

    # -- serialization ---------------------------------------------------

    def serialize(self) -> dict:
        return {"n": self.n, "modulus": format(self.modulus, "x")}

    def __repr__(self) -> str:
        return f"FieldContext(n={self.n}, modulus={self.modulus:#x})"


class ExtFieldContext(FieldContext):
    """GF(2^(n*d)) together with an explicit embedding of GF(2^n).

    The embedding sends the base field's polynomial generator to
    ``embed_image``, the smallest root (by integer representation) of the
    base modulus inside the extension.

    Its arithmetic is table-free, and nothing in the package builds its
    tables; embed, the ring embedding GF(2^n) -> GF(2^(n*d)), and its
    inverse, decode, are linear maps.
    """

    def __init__(self, base: FieldContext, d: int):
        self.base, self.d = base, d
        super().__init__(smallest_irreducible(base.n * d))
        self.embed_image = self._find_embed_image()
        beta_pow = [self.pow(self.embed_image, i) for i in range(base.n)]
        self.embed = linear_map(beta_pow)
        self._decode = GF2Solver(beta_pow).lookup(self.n)

    def _init_arithmetic(self) -> None:
        # a -> a^(2^k) is GF(2)-linear: k = n is the q-Frobenius (the identity
        # when d = 1), k = m - 1 the square root
        images = [[1 << i for i in range(self.n)]]
        while len(images) < self.n:
            images.append([self.mul(a, a) for a in images[-1]])
        self.frobenius_q = linear_map(images[self.base.n % self.n])
        self.sqrt = linear_map(images[-1])

    def subfield(self, e: int) -> list[int]:
        """GF(q^e), e | d, in increasing order: the kernel of a -> a^(q^e) + a."""
        cols = [functools.reduce(lambda a, _: self.frobenius_q(a), range(e), 1 << i) ^ 1 << i
                for i in range(self.n)]
        return sorted(span(GF2Solver(cols).null_combos))

    def _find_embed_image(self) -> int:
        # the roots of the base modulus lie in GF(q): the least is the image
        sub, p = self.subfield(1), self.base.modulus
        assert len(sub) == self.base.q
        return next(e for e in sub if e and not functools.reduce(  # Horner
            lambda r, i: self.mul(r, e) ^ (p >> i) & 1, range(self.base.n, -1, -1), 0))

    def decode(self, e: int) -> int:
        """Inverse of embed; raises if e is outside the subfield."""
        a = self._decode(e)
        if self.embed(a) != e:
            raise ValueError("element not in the embedded base field")
        return a

    # -- carry-less arithmetic --------------------------------------------

    # the table-free product and power that build_tables itself uses
    mul, pow = FieldContext._clmul_mod, FieldContext._clmul_pow

    def inv(self, a: int) -> int:
        """Extended Euclid over GF(2)[x]: u = g1*a and v = g2*a throughout."""
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def serialize(self) -> dict:
        return {**super().serialize(), "base_n": self.base.n, "d": self.d,
                "embed_image": format(self.embed_image, "x")}

    def __repr__(self) -> str:
        return f"ExtFieldContext(n={self.base.n}, d={self.d})"


# ----------------------------------------------------------------------
# Cached constructors.

def require_degree(n: int) -> None:
    if not MIN_DEGREE <= n <= MAX_DEGREE:
        raise ValidationError(f"n={n} outside supported range [{MIN_DEGREE}, {MAX_DEGREE}]")


@functools.lru_cache(maxsize=None)
def make_field(n: int) -> FieldContext:
    """GF(2^n) with the lexicographically smallest irreducible modulus."""
    require_degree(n)
    return FieldContext(smallest_irreducible(n))


@functools.lru_cache(maxsize=None)
def make_ext(base: FieldContext, d: int) -> ExtFieldContext:
    """GF(2^(n*d)) with a verified embedding of the given base field."""
    if d < 1:
        raise ValidationError("relative degree must be positive")
    if base.n * d > MAX_EXT_DEGREE:
        raise ValidationError(f"q^d = 2^{base.n * d} exceeds the cap 2^{MAX_EXT_DEGREE}")
    return ExtFieldContext(base, d)


def elem_to_hex(a: int) -> str:
    return format(a, "x")
