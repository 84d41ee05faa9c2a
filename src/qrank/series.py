"""Truncated Laurent series in q over an exact coefficient ring.

A series carries its valuation, a dense coefficient block, and a precision
``prec``: coefficients of q^e are known exactly for every e < prec.  prec may
be ``INF`` for objects that are exact polynomials (monomials, finite
products).  Operations never claim coefficients they cannot know.

The block is integer-first: one positive denominator ``den`` shared by every
coefficient, and a flat list ``data`` of integer coordinates, ``ring.width``
per exponent of q: 1 over the rationals (``QQ``), l-1 power-basis
coordinates over Q(zeta_l) (``cyclotomic_field(l)``).  A rational series
combines freely with a series over Q(zeta_l).  The ring adapters' ``split``
and ``view`` convert single coefficients; ``Fraction`` and ``CycQ`` values
are built only where a caller reads coefficients (``coefficient``,
``nonzero_items``, ``to_json``, ``str``) or passes a scalar to ``scale``.

All dense arithmetic runs on integers:

* ``_mul`` multiplies by Kronecker substitution: both blocks are packed into
  one Python integer each, with digits wide enough, by a proven bound, that
  no coefficient of the product spills into its neighbour; one big-integer
  product is unpacked into signed digits and reduced mod the cyclotomic
  polynomial;
* ``inverse`` runs Newton iteration on that product;
* ``FactorBlock`` is the one kernel that multiplies or divides by a factor
  (1 - c q^e): a mutable block changed in place, O(n) integer additions per
  factor: a plain add over QQ, a rotation of residue vectors for c = zeta^k
  over Q(zeta_l), and in general the lifted integer coordinates of c; it
  divides only by a factor of integral c.  Every Pochhammer product
  (``poch``, ``jacprod``) is one pass of it, on q^g when its exponents share
  the factor g, and generating functions whose terms differ by a few factors
  keep one running block.
  ``FactorBlock.sparse`` multiplies or divides the block by a sparse monic
  series with integral coefficients instead: Euler's pentagonal series for
  E(x), and the triple-product sum that divides RU/RV at zeta_l.

Builders whose last argument is the precision (``poch``, ``jacprod``, and
those of ``lambert`` and ``rankgen``) are wrapped in ``memo``: it keeps the
longest build per key of the other arguments and answers a request at a
precision no higher by truncating that build (a tuple of per-n terms by its
first prec entries), so repeated and lower-precision requests are hits.

A formal z appears only in ``ZLaurentPoly``, the rank polynomial
sum_r N(r, n) z^r of one n, a record with no arithmetic a program uses;
``rankgen._bivariate`` packs its own z-digits with ``_unpack``'s codec and
decodes each q-slot into one.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, update_wrapper
from itertools import accumulate, compress, count, repeat
from operator import add, floordiv, lshift, mul, neg, or_, sub

from .cyclotomic import QQ, CycQ, _reduce_residues, as_rational, cyclotomic_field, format_terms

INF = math.inf


class PrecisionError(ValueError):
    """A coefficient beyond the known precision was requested."""


def join_rings(r1, r2):
    if r1 is r2:
        return r1
    if r1._rank == 0:
        return r2
    if r2._rank == 0:
        return r1
    raise ValueError(f"incompatible coefficient rings {r1.name} and {r2.name}")


class ZLaurentPoly:
    """Laurent polynomial in the auxiliary variable z with integer or rational coefficients.

    A record: the rank polynomial sum_r N(r, n) z^r of one n, built by the
    rank routes and compared, read and printed.  Its one operation, the
    product of two polynomials, serves no program path; it stays because
    the benchmark traces ``__mul__`` and ``__rmul__`` by name.
    """

    __slots__ = ("lowest", "coeffs")

    def __init__(self, lowest: int, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            lowest += 1
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.lowest = lowest if coeffs else 0
        self.coeffs = tuple(coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, ZLaurentPoly):
            return NotImplemented
        acc = [0] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                acc[i + j] += a * b
        return ZLaurentPoly(self.lowest + other.lowest, acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ZLaurentPoly):
            return self.lowest == other.lowest and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == ZLaurentPoly(0, (other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.lowest, self.coeffs))

    def items(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.lowest + i, c

    def __str__(self):
        return format_terms(self.items(), "z")

    __repr__ = __str__


# -- packed integers ------------------------------------------------------------
#
# A list of signed digits d_i with |d_i| < 2^(8k-1) packs into the integer
# sum d_i X^i, X = 2^(8k).  Adding 2^(8k-1) to every digit makes all of them
# non-negative, so the bytes of (sum + offset) are the biased digits side by
# side.  ``array`` converts between those bytes and Python ints in C for digits
# of one machine word or less (and two words when unpacking); wider digits
# convert one int.to_bytes or int.from_bytes each, linear in k.

_SMALL_CODES = {array(code).itemsize: code for code in "BHI"}
_BIG_ENDIAN = sys.byteorder == "big"


def _digit_bytes(bound: int) -> int:
    """Bytes per digit that hold any integer of magnitude <= bound, plus a sign bit."""
    size = (bound.bit_length() + 8) // 8
    for k in sorted(_SMALL_CODES):
        if size <= k:
            return k
    return -(-size // 8) * 8


def _offset(k: int, n: int) -> int:
    """The packed integer whose n digits of k bytes all equal 2^(8k-1)."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _pack(vals, k: int) -> int:
    """sum(vals[i] * 2^(8k i)) for signed digits |vals[i]| < 2^(8k-1)."""
    biased = map(add, vals, repeat(1 << (8 * k - 1)))
    if k > 8:
        raw = b"".join(map(int.to_bytes, biased, repeat(k), repeat("little")))
    else:
        words = array(_SMALL_CODES.get(k, "Q"), biased)
        if _BIG_ENDIAN:
            words.byteswap()
        raw = words.tobytes()
    return int.from_bytes(raw, "little") - _offset(k, len(vals))


def _unpack(x: int, n: int, k: int) -> list:
    """The n lowest signed digits of x in base 2^(8k), each of magnitude < 2^(8k-1)."""
    half = 1 << (8 * k - 1)
    biased = ((x + _offset(k, n)) & ((1 << (8 * k * n)) - 1)).to_bytes(k * n, "little")
    if k > 16:
        view = memoryview(biased)
        return [int.from_bytes(view[i:i + k], "little") - half for i in range(0, k * n, k)]
    words = array(_SMALL_CODES.get(k, "Q"))
    words.frombytes(biased)
    if _BIG_ENDIAN:
        words.byteswap()
    digits = words if k <= 8 else map(or_, words[0::2], map(lshift, words[1::2], repeat(64)))
    return list(map(sub, digits, repeat(half)))


def _spread(data: list, width: int, stride: int) -> list:
    """Re-lay slots of ``width`` coordinates into the first columns of slots of ``stride``."""
    if width == stride:
        return data
    out = [0] * (len(data) // width * stride)
    for j in range(width):
        out[j::stride] = data[j::width]
    return out


def _kron_mul(a: list, wa: int, b: list, wb: int, n: int) -> list:
    """First n slots of the 2-D convolution of blocks a and b, wa + wb - 1 digits per slot.

    Substituting z -> X and q -> X^(wa+wb-1) turns both blocks into integers
    whose product holds each raw coordinate of the result in its own digit.
    A coordinate sums at most min(len_a, len_b) * min(wa, wb) products, so
    that count times max|a| * max|b|, plus a sign bit, sizes the digits.
    """
    same = a is b
    a = a[:n * wa]
    b = a if same else b[:n * wb]
    stride = wa + wb - 1
    bound = (min(len(a) // wa, len(b) // wb) * min(wa, wb)
             * max(map(abs, a)) * max(map(abs, b)))
    k = _digit_bytes(bound)
    pa = _pack(_spread(a, wa, stride), k)
    pb = pa if same else _pack(_spread(b, wb, stride), k)
    return _unpack(pa * pb, n * stride, k)


def _fold_cyclotomic(raw: list, ell: int) -> list:
    """Reduce slots of 2l-3 raw coordinates (powers zeta^0..zeta^(2l-4)) to the power basis.

    zeta^(l+k) folds onto zeta^k in place; ``_reduce_residues`` then
    eliminates zeta^(l-1).
    """
    stride = 2 * ell - 3
    for k in range(ell - 3):
        raw[k::stride] = map(add, raw[k::stride], raw[ell + k::stride])
    return _reduce_residues(raw, ell, stride)


def _first_nonzero(data: list):
    return next(compress(count(), data), None)


# -- the series type --------------------------------------------------------------


class _Coefficients(Sequence):
    """Read-only view of a series' dense coefficients, one ring element per exponent."""

    __slots__ = ("_series",)

    def __init__(self, series):
        self._series = series

    def __len__(self):
        return len(self._series.data) // self._series.ring.width

    def __getitem__(self, i: int):
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("coefficient index out of range")
        return self._series._view(i)


def _new(ring, valuation, den, data, prec) -> "LaurentSeries":
    s = object.__new__(LaurentSeries)
    s.ring, s.valuation, s.prec, s.den, s.data = ring, valuation, prec, den, data
    return s


def _make(ring, valuation, den, data, prec) -> "LaurentSeries":
    """A series in canonical form from any block of ``ring.width`` coordinates per slot.

    Canonical: nothing at or above prec, no zero slot at either end, and
    gcd(den, data) = 1; the zero series has an empty block, den 1 and
    valuation prec.
    """
    width = ring.width
    if prec != INF and data:
        keep = (prec - valuation) * width
        if keep < len(data):
            data = data[:max(int(keep), 0)]
    first = _first_nonzero(data)
    if first is None:
        return LaurentSeries.zero(ring, prec)
    last = len(data) - _first_nonzero(data[::-1])
    start = first // width
    end = -(-last // width)
    if start or end * width < len(data):
        data = data[start * width:end * width]
        valuation += start
    if den != 1:
        g = math.gcd(den, *data)
        if g != 1:
            den //= g
            data = list(map(floordiv, data, repeat(g)))
    return _new(ring, valuation, den, data, prec)


def _assemble(ring, items, prec) -> "LaurentSeries":
    """Series from (exponent, ring element) pairs; duplicate exponents add."""
    parts = [(e, *ring.split(c)) for e, c in items if prec == INF or e < prec]
    if not parts:
        return LaurentSeries.zero(ring, prec)
    lo = min(p[0] for p in parts)
    den = math.lcm(*(p[1] for p in parts))
    width = ring.width
    data = [0] * ((max(p[0] for p in parts) - lo + 1) * width)
    for e, d, coords in parts:
        f = den // d
        base = (e - lo) * width
        for j, x in enumerate(coords):
            if x:
                data[base + j] += x * f
    return _make(ring, lo, den, data, prec)


class LaurentSeries:
    """Truncated Laurent series over an exact ring, exact below ``prec``."""

    __slots__ = ("ring", "valuation", "prec", "den", "data")

    def __init__(self, ring, valuation, coeffs, prec=INF):
        made = _assemble(ring, [(valuation + i, c) for i, c in enumerate(coeffs)], prec)
        for name in LaurentSeries.__slots__:
            setattr(self, name, getattr(made, name))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ring, prec=INF) -> "LaurentSeries":
        return _new(ring, prec, 1, [], prec)

    @staticmethod
    def const(ring, value, prec=INF) -> "LaurentSeries":
        return _assemble(ring, [(0, value)], prec)

    @staticmethod
    def monomial(ring, exponent: int, coeff=1, prec=INF) -> "LaurentSeries":
        return _assemble(ring, [(exponent, coeff)], prec)

    @staticmethod
    def from_items(ring, items, prec=INF) -> "LaurentSeries":
        """Series from (exponent, coefficient) pairs; duplicate exponents add."""
        return _assemble(ring, items, prec)

    # -- inspection -----------------------------------------------------

    @property
    def coeffs(self) -> _Coefficients:
        """The dense coefficients from q^valuation on, built as ring elements on access."""
        return _Coefficients(self)

    def _view(self, i: int):
        w = self.ring.width
        return self.ring.view(self.den, self.data[i * w:(i + 1) * w])

    def is_zero(self) -> bool:
        return not self.data

    def coefficient(self, e: int):
        """Exact coefficient of q^e; raises PrecisionError for e >= prec."""
        if e >= self.prec:
            raise PrecisionError(f"coefficient of q^{e} is beyond precision {self.prec}")
        if not self.data or e < self.valuation or e >= self.valuation + len(self.data) // self.ring.width:
            return self.ring.zero
        return self._view(e - self.valuation)

    def nonzero_items(self):
        data, w = self.data, self.ring.width
        if w == 1:
            for i in compress(count(), data):
                yield self.valuation + i, self._view(i)
            return
        for i in range(len(data) // w):
            if any(data[i * w:(i + 1) * w]):
                yield self.valuation + i, self._view(i)

    # -- ring operations --------------------------------------------------

    def _layout(self, ring) -> list:
        """This block over ``ring``, a ring containing self.ring."""
        return _spread(self.data, self.ring.width, ring.width)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return _combine(self, other, add)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return _combine(self, other, sub)

    def __neg__(self):
        return _new(self.ring, self.valuation, self.den, list(map(neg, self.data)), self.prec)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        return _mul(self, other)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return self.power(k)

    def power(self, k: int, product=mul) -> "LaurentSeries":
        """self^k by squarings and products, each taken by ``product`` (a * b by
        default); k < 0 raises the inverse to -k."""
        if k < 0:
            return self.inverse(product=product).power(-k, product)
        if k == 0:
            return LaurentSeries.const(self.ring, self.ring.one)  # exact, whatever the base knows
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else product(result, base)
            k >>= 1
            if not k:
                return result
            base = product(base, base)

    def scale(self, c) -> "LaurentSeries":
        """Multiply every coefficient by the scalar c."""
        ring = self.ring
        if isinstance(c, CycQ):
            ring = join_rings(ring, cyclotomic_field(c.ell))
        else:
            c = as_rational(c)
        if not c:
            return LaurentSeries.zero(ring, self.prec)
        if c == 1:
            return self.promote(ring)
        if isinstance(c, Fraction):
            data = self.data if c.numerator == 1 else list(map(mul, self.data, repeat(c.numerator)))
            return _make(ring, self.valuation, self.den * c.denominator, data, self.prec)
        return _mul(self, LaurentSeries.const(ring, c))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q^k."""
        return _new(self.ring, self.valuation + k, self.den, self.data, self.prec + k)

    def inverse(self, prec=None, product=None) -> "LaurentSeries":
        """Multiplicative inverse to precision ``self.prec - 2*valuation``.

        Requires an invertible leading coefficient.  ``prec`` overrides the
        output precision (never upward past what the input supports unless the
        input is exact); ``product`` takes the products of the Newton steps.
        """
        return _inverse(self, prec, product or _mul)

    # -- structural operations ------------------------------------------

    def truncate(self, prec) -> "LaurentSeries":
        if prec >= self.prec:
            return self
        return self.with_prec(prec)

    def with_prec(self, prec) -> "LaurentSeries":
        """Assert a precision (used when a result is known to be exact)."""
        if not self.data:
            return LaurentSeries.zero(self.ring, prec)
        if prec < self.valuation + len(self.data) // self.ring.width:
            return _make(self.ring, self.valuation, self.den, self.data, prec)
        return _new(self.ring, self.valuation, self.den, self.data, prec)

    def dissect(self, modulus: int, residue: int) -> "LaurentSeries":
        """Keep only the exponents congruent to residue mod modulus."""
        if modulus < 1 or not 0 <= residue < modulus:
            raise ValueError(f"need 0 <= residue < modulus, got {residue} mod {modulus}")
        if not self.data:
            return self
        w = self.ring.width
        first = (residue - self.valuation) % modulus * w
        kept = [0] * len(self.data)
        for j in range(first, first + w):
            kept[j::modulus * w] = self.data[j::modulus * w]
        return _make(self.ring, self.valuation, self.den, kept, self.prec)

    def promote(self, ring) -> "LaurentSeries":
        target = join_rings(self.ring, ring)
        if target is self.ring:
            return self
        return _new(target, self.valuation, self.den, self._layout(target), self.prec)

    # -- comparison -------------------------------------------------------

    def first_nonzero_below(self, limit=None):
        bound = self.prec if limit is None else min(limit, self.prec)
        for e, c in self.nonzero_items():
            if e >= bound:
                break
            return e, c
        return None

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.ring is other.ring and self.prec == other.prec
                and self.valuation == other.valuation and self.den == other.den
                and self.data == other.data)

    # -- output -----------------------------------------------------------

    def to_json(self):
        return {
            "valuation": None if self.valuation == INF else int(self.valuation),
            "prec": None if self.prec == INF else int(self.prec),
            "coeffs": [self.ring.encode(c) for c in self.coeffs],
        }

    def _format(self, limit=None) -> str:
        terms = []
        for e, c in self.nonzero_items():
            if len(terms) == limit:
                terms.append("...")
                break
            cs = str(c)
            if not (cs.lstrip("-").replace("/", "").isdigit()):
                cs = f"({cs})"
            if e == 0:
                terms.append(cs)
            else:
                qs = "q" if e == 1 else f"q^{e}"
                terms.append(qs if cs == "1" else f"{cs}*{qs}")
        body = " + ".join(terms) if terms else "0"
        tail = "" if self.prec == INF else f" + O(q^{int(self.prec)})"
        return body + tail

    def __str__(self):
        """Every known nonzero term, then the O(q^prec) tail."""
        return self._format()

    def __repr__(self):
        return self._format(limit=6)


# -- the kernels ------------------------------------------------------------------


def _combine(a: LaurentSeries, b: LaurentSeries, op) -> LaurentSeries:
    """a + b (op = add) or a - b (op = sub) over the joined ring."""
    ring = join_rings(a.ring, b.ring)
    prec = min(a.prec, b.prec)
    if not b.data:
        return _make(ring, a.valuation, a.den, a._layout(ring), prec)
    if not a.data:
        data = b._layout(ring)
        if op is sub:
            data = list(map(neg, data))
        return _make(ring, b.valuation, b.den, data, prec)
    ad, bd, width = a._layout(ring), b._layout(ring), ring.width
    den = math.lcm(a.den, b.den)
    if den != a.den:
        ad = list(map(mul, ad, repeat(den // a.den)))
    if den != b.den:
        bd = list(map(mul, bd, repeat(den // b.den)))
    lo = min(a.valuation, b.valuation)
    hi = max(a.valuation + len(ad) // width, b.valuation + len(bd) // width)
    if prec != INF:
        hi = min(hi, int(prec))
    if hi <= lo:
        return LaurentSeries.zero(ring, prec)
    out = [0] * ((hi - lo) * width)
    start = (a.valuation - lo) * width
    stop = min(start + len(ad), len(out))
    if stop > start:
        out[start:stop] = ad[:stop - start]
    start = (b.valuation - lo) * width
    stop = min(start + len(bd), len(out))
    if stop > start:
        out[start:stop] = map(op, out[start:stop], bd)
    return _make(ring, lo, den, out, prec)


def _mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """The product a*b through the Kronecker kernel."""
    ring = join_rings(a.ring, b.ring)
    prec = min(a.prec + b.valuation, b.prec + a.valuation)
    if not a.data or not b.data:
        return LaurentSeries.zero(ring, prec)
    val = a.valuation + b.valuation
    wa, wb = a.ring.width, b.ring.width
    n = len(a.data) // wa + len(b.data) // wb - 1
    if prec != INF:
        n = min(n, int(prec - val))
        if n <= 0:
            return LaurentSeries.zero(ring, prec)
    raw = _kron_mul(a.data, wa, b.data, wb, n)
    if wa > 1 and wb > 1:
        raw = _fold_cyclotomic(raw, ring.ell)
    return _make(ring, val, a.den * b.den, raw, prec)


def _newton(f: LaurentSeries, n: int, product) -> LaurentSeries:
    """1/f to n terms, for f of valuation 0 with constant term exactly 1.

    Newton's step g -> g - g (f g - 1) doubles the number of correct terms;
    f g - 1 vanishes below the old length, so only its tail is multiplied.
    """
    g = LaurentSeries.const(f.ring, 1, 1)
    done = 1
    while done < n:
        step = min(2 * done, n)
        g = g.with_prec(step)
        fg = product(f.truncate(step), g)
        tail = fg.data[(done - fg.valuation) * fg.ring.width:]
        if tail:
            g = _combine(g, product(g, _new(fg.ring, done, fg.den, tail, step)), sub)
        done = step
    return g


def _inverse(s: LaurentSeries, prec, product) -> LaurentSeries:
    if not s.data:
        raise ZeroDivisionError("inverting a series with no known nonzero coefficient")
    v = s.valuation
    native = s.prec - 2 * v if s.prec != INF else INF
    out_prec = native if prec is None else (prec if native == INF else min(prec, native))
    if out_prec == INF:
        raise PrecisionError("cannot invert an exact polynomial to infinite precision; pass prec")
    lead_inv = s.ring.invert(s.coefficient(v))
    terms = int(out_prec + v)
    if terms <= 0:
        return LaurentSeries.zero(s.ring, out_prec)
    unit = s.shift(-v).scale(lead_inv)
    return _newton(unit, terms, product).scale(lead_inv).shift(-v)


def _cyclic_lift(coords) -> list:
    """Coordinates of 1..zeta^(l-1) with least absolute sum that represent the same element.

    Adding t (1 + zeta + ... + zeta^(l-1)) = 0 changes nothing in Q(zeta_l);
    t = -median minimises the sum of absolute values.
    """
    full = list(coords) + [0]
    t = sorted(full)[len(full) // 2]
    return [x - t for x in full]


# -- the in-place factor kernel ----------------------------------------------------


@lru_cache(maxsize=256)
def _factor_terms(ring, c):
    """(d, [(k, m), ...]) with c = sum m x^k / d over the integers m.

    x is the rotation zeta over Q(zeta_l), acting on residue vectors, with
    the lifted coordinates of c; over QQ there is one term, the numerator
    of c.
    """
    den, coords = ring.split(c)
    if ring is not QQ:
        coords = _cyclic_lift(coords)
    return den, [(k, m) for k, m in enumerate(coords) if m]


def _rotated(src: list, width: int, k: int) -> list:
    """src with coordinate j of every slot of ``width`` moved to (j + k) mod width.

    One roll of the whole list moves every coordinate but the min(k, width - k)
    that wrap into the neighbouring slot; those columns are then copied in.
    """
    if k == 0:
        return src
    if 2 * k <= width:
        out = src[-k:] + src[:-k]
        for j in range(k):
            out[j::width] = src[width - k + j::width]
    else:
        out = src[width - k:] + src[:width - k]
        for j in range(k, width):
            out[j::width] = src[j - k::width]
    return out


def _apply(data: list, width: int, start: int, src: list, terms, op) -> None:
    """data[start:start + len(src)] op= c times src, slot by slot, c given by ``terms``.

    A term (k, m) moves coordinate j of a slot to coordinate (j + k) mod
    width, times m.  A target running past the end of data is cut there.
    """
    target = slice(start, start + len(src))
    for k, m in terms:
        part = _rotated(src, width, k)
        if m == -1:
            data[target] = map(sub if op is add else add, data[target], part)
            continue
        if m != 1:
            part = map(mul, part, repeat(m))
        data[target] = map(op, data[target], part)


class FactorBlock:
    """A power series in q to n terms as a mutable integer block, changed in place
    by one factor (1 - c q^e) at a time.

    The block holds ``n`` slots, one per power q^0 .. q^(n-1), over one
    common denominator ``den``: over QQ a slot is one integer; over
    Q(zeta_l) it is a residue vector of l integers, the coefficients of 1,
    zeta, ..., zeta^(l-1), so multiplying by zeta^k rotates it, and
    ``series`` reduces it to the power basis once.

    Multiplying by (1 - c q^e), c = C/d, sets slot i to d slot_i - C slot_(i-e)
    and multiplies den by d.  Dividing, for an integral c (1 or a root of
    unity wherever the program divides), solves slot_i = x_i + c slot_(i-e)
    from the low slots up, e slots at a time.  Every operation is exact in
    the power series ring truncated at q^n, so factors may be applied in any
    order.  A product whose exponents are all multiples of g runs on q^g, each
    exponent divided by g; ``series(prec, g)`` puts slot i back at q^(i g).
    """

    __slots__ = ("ring", "width", "den", "data")

    def __init__(self, ring, n: int, value: int = 1):
        """The constant ``value`` to n terms."""
        self.ring = ring
        self.width = 1 if ring is QQ else ring.ell
        self.den = 1
        self.data = [0] * (max(n, 0) * self.width)
        if self.data:
            self.data[0] = value

    def factor(self, c, exps, divide: bool = False) -> None:
        """Multiply the block by (1 - c q^e) for each e in ``exps``, or divide it by those factors.

        ``exps`` is one exponent >= 1 or an iterable of them; c is resolved
        into integer terms once for all of them.  A divided factor's c must
        be integral.
        """
        w = self.width
        n = len(self.data) // w
        d, terms = _factor_terms(self.ring, c)
        if divide and d != 1:
            raise ValueError(f"a divided factor's c must be integral, got {c}")
        for e in (exps,) if isinstance(exps, int) else exps:
            if e < 1:
                raise ValueError(f"factor exponent must be >= 1, got {e}")
            if e >= n or not terms:
                continue
            data = self.data
            if not divide:
                prev = data[:(n - e) * w]
                if d != 1:
                    data = self.data = list(map(mul, data, repeat(d)))
                    self.den *= d
                _apply(data, w, e * w, prev, terms, sub)
                continue
            step = e * w
            if len(terms) == 1 and terms[0][0] == 0 and e * step < n:
                # c = m, and fewer residue classes mod e than groups of e
                # slots: each class is one running sum, in one C-level pass
                m = terms[0][1]
                running = add if m == 1 else (lambda a, x: x + a * m)
                for j in range(step):
                    data[j::step] = accumulate(data[j::step], running)
                continue
            for lo in range(step, len(data), step):
                _apply(data, w, lo, data[lo - step:lo], terms, add)

    def sparse(self, terms, divide: bool = False) -> None:
        """Multiply the block by s = 1 + sum c q^t over ``terms``, pairs (t, c)
        with t >= 1 and c integral, or divide it by s.

        A multiplication is one whole-block shifted add per term.  s is monic
        with integral coefficients, so the quotient y solves
        y_i = x_i - sum c y_(i-t) slot by slot, exact and with no denominator.
        A term m x^k of a lifted c enters that sum |m| times (once for the
        pentagonal and triple-product series, whose lifted coordinates are 0
        or +-1), as the slice of the doubled residue vector y_(i-t) y_(i-t)
        that is x^k y_(i-t), or of its negation.
        """
        w = self.width
        n = len(self.data) // w
        resolved = []
        for t, c in terms:
            if t < 1:
                raise ValueError(f"sparse term exponent must be >= 1, got {t}")
            d, lifted = _factor_terms(self.ring, c)
            if d != 1:
                raise ValueError(f"sparse term coefficients must be integral, got {c}")
            if t < n and lifted:
                resolved.append((t, lifted))
        if not divide:
            old = self.data[:]
            for t, lifted in resolved:
                _apply(self.data, w, t * w, old[:(n - t) * w], lifted, add)
            return
        gather = sorted((t, m > 0, w - k) for t, lifted in resolved for k, m in lifted for _ in range(abs(m)))
        data, out, doubled, negated = self.data, [], [], []
        live = 0
        for i in range(n):
            while live < len(gather) and gather[live][0] <= i:
                live += 1
            y = data[i * w:(i + 1) * w]
            if live:
                y = list(map(sum, zip(y, *[(negated if minus else doubled)[i - t][s:s + w]
                                           for t, minus, s in gather[:live]])))
            out += y
            doubled.append(y + y)
            negated.append(list(map(neg, y)) * 2)
        self.data = out

    def scale(self, c) -> None:
        """Multiply the block in place by the scalar c."""
        d, terms = _factor_terms(self.ring, c)
        if terms != [(0, 1)]:
            src = self.data
            self.data = [0] * len(src)
            _apply(self.data, self.width, 0, src, terms, add)
        self.den *= d

    def add(self, other: "FactorBlock", shift: int = 0) -> None:
        """Add q^shift times ``other`` (same ring) to this block's terms."""
        w = self.width
        count = min(len(other.data) // w, len(self.data) // w - shift)
        if count <= 0:
            return
        den = math.lcm(self.den, other.den)
        if den != self.den:
            self.data = list(map(mul, self.data, repeat(den // self.den)))
            self.den = den
        _apply(self.data, w, shift * w, other.data[:count * w], [(0, den // other.den)], add)

    def series(self, prec, step: int = 1) -> "LaurentSeries":
        """The block as a LaurentSeries from q^0, slot i at q^(i*step), exact below prec:
        a block built on q^step, every exponent divided by step, spread back to q."""
        ring, w, data = self.ring, self.width, self.data
        data = data[:] if ring is QQ else _reduce_residues(data, w, w)
        return _make(ring, 0, self.den, _spread(data, ring.width, ring.width * step), prec)


# -- the precision-aware memo ------------------------------------------------

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class memo:
    """Memoize a builder whose last argument is a precision, keyed on the others.

    The longest build per key is kept, and a request at a precision no
    higher is answered from it: a series by ``truncate(prec)``, a tuple of
    per-n terms by its first prec entries.  A build that raises leaves the
    store as it was.  With a maxsize, only that many keys are kept, the
    least recently used dropped first.  Every memo sits in
    ``memo.registry``, which ``clear_memos`` empties.
    """

    registry = []

    def __init__(self, build, maxsize=None):
        update_wrapper(self, build)
        self._store, self.hits, self.misses, self.maxsize = {}, 0, 0, maxsize
        memo.registry.append(self)

    def __call__(self, *args):
        key, prec = args[:-1], args[-1]
        built = self._store.get(key)
        if built is not None and built[0] >= prec:
            self.hits += 1
            self._store[key] = self._store.pop(key)  # the store runs from least to most recently used
            value = built[1]
            return value[:max(prec, 0)] if isinstance(value, tuple) else value.truncate(prec)
        self.misses += 1
        value = self.__wrapped__(*args)
        self._store.pop(key, None)
        self._store[key] = prec, value
        if self.maxsize is not None and len(self._store) > self.maxsize:
            del self._store[next(iter(self._store))]
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, self.maxsize, len(self._store))

    def cache_clear(self) -> None:
        self._store.clear()
        self.hits = self.misses = 0


def clear_memos() -> None:
    """Empty every memo, ``qexpr``'s session cache among them, and reset their counts."""
    for m in memo.registry:
        m.cache_clear()


# -- product and sum builders ------------------------------------------------


def geometric(ring, c, step: int, prec) -> "LaurentSeries":
    """1/(1 - c*q^step) = sum_{k>=0} c^k q^(k*step), step >= 1, by its closed form."""
    if step < 1:
        raise ValueError(f"geometric step must be >= 1, got {step}")
    if prec == INF:
        raise PrecisionError("geometric expansion needs a finite precision")
    powers = accumulate(repeat(ring.of(c)), mul, initial=ring.one)  # 1, c, c^2, ...
    return LaurentSeries.from_items(ring, zip(range(0, int(prec), step), powers), prec)


def _poch_shift(a: int, b: int, count) -> int:
    """The sum of the negative exponents a + j*b, j < count, of a Pochhammer product."""
    k = 0 if a >= 0 else min((-a + b - 1) // b, count)
    return k * a + b * k * (k - 1) // 2


@memo
def poch(ring, c, a: int, b: int, count, prec) -> "LaurentSeries":
    """q-Pochhammer (c*q^a; q^b)_count = prod_{j<count} (1 - c*q^(a+j*b)), exact below prec.

    ``count`` is a non-negative integer or INF.  Infinite products require
    a >= 1, or a = 0 with c != 1 (the leading factor is then the scalar 1-c).
    With (1 - c q^e) = -c q^e (1 - c^-1 q^-e) for e < 0, one FactorBlock holds
    c at the positive exponents and 1/c at the negated negative ones, to
    prec - shift terms, shift the sum of the negative exponents.  Every
    exponent is a multiple of g = gcd(a, b), so the block runs on q^g: one
    slot per multiple of g below q^(prec - shift).
    """
    if b < 1:
        raise ValueError(f"Pochhammer step must be >= 1, got {b}")
    c = ring.of(c)
    if count == INF:
        if a < 0:
            raise ValueError(f"infinite product with leading exponent {a} < 0 does not converge formally")
        if a == 0 and c == ring.one:
            raise ValueError("infinite product (1;q)_inf vanishes identically; handle the z=1 case separately")
        if prec == INF:
            raise PrecisionError("infinite product needs a finite precision")
    elif not isinstance(count, int) or count < 0:
        raise ValueError(f"Pochhammer count must be a non-negative integer or INF, got {count}")
    shift = _poch_shift(a, b, count)
    if prec == INF:
        exps = range(a, a + count * b, b)
        n = sum(map(abs, exps)) + 1
    else:
        # factors at or past q^n act as 1 on the block
        n = max(int(prec) - shift, 1)
        exps = range(a, min(a + count * b, n), b)
    g = math.gcd(a, b)
    block = FactorBlock(ring, (n - 1) // g + 1)
    if not c:
        return block.series(prec)  # every factor is 1
    flipped = [-e // g for e in exps if e < 0]
    block.factor(c, [e // g for e in exps if e > 0])
    block.factor(ring.invert(c), flipped)
    block.scale((-c) ** len(flipped) * (ring.one - c) ** int(0 in exps))
    return block.series(prec - shift, g).shift(shift)


@memo
def jacprod(ring, c, a: int, b: int, prec) -> "LaurentSeries":
    """Theta-style product (c*q^a; q^b)_inf * (q^(b-a)/c; q^b)_inf, 0 < a < b,
    both factor sets in one block, on q^g for g = gcd(a, b)."""
    if not 0 < a < b:
        raise ValueError(f"jacprod needs 0 < a < b, got a={a}, b={b}")
    if prec == INF:
        raise PrecisionError("infinite product needs a finite precision")
    g = math.gcd(a, b)
    size = (max(int(prec), 1) - 1) // g + 1
    block = FactorBlock(ring, size)
    c = ring.of(c)
    block.factor(c, range(a // g, size, b // g))
    block.factor(ring.invert(c), range((b - a) // g, size, b // g))
    return block.series(prec, g)


def theta_jtp_sum(ring, c, prec) -> "LaurentSeries":
    """Bilateral theta sum sum_n (-1)^n c^n q^(n(n+1)/2), truncated below prec."""
    if prec == INF:
        raise PrecisionError("theta sum needs a finite precision")
    c = ring.of(c)
    items = []
    power = ring.one
    n = 0
    while n * (n + 1) // 2 < prec:
        items.append((n * (n + 1) // 2, power if n % 2 == 0 else -power))
        power = power * c
        n += 1
    cinv = ring.invert(c)
    power = ring.one
    t = 1
    while t * (t - 1) // 2 < prec:
        power = power * cinv
        items.append((t * (t - 1) // 2, -power if t % 2 else power))
        t += 1
    return LaurentSeries.from_items(ring, items, prec)
