"""Exact scalars: arbitrary-precision rationals and the cyclotomic fields Q(zeta_l).

The base scalar is ``fractions.Fraction``.  ``CycQ`` is an element of Q(zeta_l)
for a prime l >= 3, stored in the power basis 1, zeta, ..., zeta^(l-2), so
equality is a plain coordinate comparison.  Products run on residue vectors,
the coefficients of 1, zeta, ..., zeta^(l-1) (``_cyclic_product``), and
``_reduce_residues`` is the one reduction back to the power basis.  A unit
monomial c zeta^k inverts to (1/c) zeta^-k directly, any other element by
its norm: a^-1 = P / N(a), P the product of the other conjugates of a.

The coefficient-ring adapters (``QQ``, ``cyclotomic_field(l)``) also translate
between single elements and the integer form that ``LaurentSeries`` stores:
``split`` gives a positive denominator and integer coordinates, ``view``
rebuilds the element from them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import sub

_ZERO = Fraction(0)
_ONE = Fraction(1)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def rational_str(x: Fraction) -> str:
    """Encode a rational as the canonical "num/den" string."""
    return f"{x.numerator}/{x.denominator}"


def format_terms(items, var: str) -> str:
    """Text of sum c var^k from the (k, c) pairs of its nonzero terms, in order.

    "-1 + 2*z - z^3": magnitudes, a leading "-" and joining "+ " or "- " signs.
    """
    parts = []
    for k, c in items:
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def _cyclic_product(x, y, ell: int, zero=0) -> list:
    """The l coefficients of 1, zeta, ..., zeta^(l-1) in (sum x_i zeta^i)(sum y_j zeta^j).

    x and y hold at most l coefficients each; exponents are taken mod l.
    Coefficients no product reaches stay ``zero``.
    """
    raw = [zero] * ell
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if yj:
                k = i + j
                if k >= ell:
                    k -= ell
                raw[k] += xi * yj
    return raw


def _reduce_residues(raw: list, ell: int, stride: int) -> list:
    """Power-basis coordinates of slots of ``stride`` digits, the first l of each
    the coefficients of 1, zeta, ..., zeta^(l-1): zeta^(l-1) = -(1 + ... + zeta^(l-2))
    subtracts the top coefficient from the others."""
    width = ell - 1
    if len(raw) == stride == ell and not raw[-1]:
        return raw[:-1]      # one vector, already reduced: no l-1 Fraction subtractions
    data = [0] * (len(raw) // stride * width)
    top = raw[width::stride]
    for j in range(width):
        data[j::width] = map(sub, raw[j::stride], top)
    return data


class CycQ:
    """An element of Q(zeta_l) as l-1 rational coordinates in the power basis."""

    __slots__ = ("ell", "coeffs")

    def __init__(self, ell: int, coeffs):
        self.ell = ell
        self.coeffs = tuple(coeffs)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_raw(ell: int, raw) -> "CycQ":
        """Reduce a length-l vector of coefficients of 1, zeta, ..., zeta^(l-1)."""
        raw = [as_rational(c) for c in raw]
        if len(raw) != ell:
            raise ValueError(f"need {ell} coefficients, got {len(raw)}")
        return CycQ(ell, _reduce_residues(raw, ell, ell))

    def _coerce(self, other):
        if isinstance(other, CycQ):
            if other.ell != self.ell:
                raise ValueError(f"mixed cyclotomic orders {self.ell} and {other.ell}")
            return other
        if isinstance(other, (int, Fraction)):
            n = self.ell - 1
            return CycQ(self.ell, (as_rational(other),) + (_ZERO,) * (n - 1))
        return None

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            c = list(self.coeffs)
            c[0] = c[0] + other
            return CycQ(self.ell, c)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycQ(self.ell, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycQ(self.ell, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            c = list(self.coeffs)
            c[0] = c[0] - other
            return CycQ(self.ell, c)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycQ(self.ell, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return CycQ(self.ell, (_ZERO,) * (self.ell - 1))
            return CycQ(self.ell, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ell = self.ell
        raw = _cyclic_product(self.coeffs, other.coeffs, ell, _ZERO)
        return CycQ(ell, _reduce_residues(raw, ell, ell))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycQ(self.ell, (_ONE,) + (_ZERO,) * (self.ell - 2))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "CycQ":
        """Multiplicative inverse: (1/c) zeta^-k for a unit monomial c zeta^k, else by the norm.

        c zeta^k has one nonzero coordinate for k <= l-2; for k = l-1 every
        coordinate equals -c, since zeta^(l-1) = -(1 + zeta + ... + zeta^(l-2)).
        Any other a = A / den, A integral, has P = sigma_2(A) ... sigma_(l-1)(A),
        sigma_k: zeta -> zeta^k; the residue vector of A P = N(A) is rational,
        N(A) + t in coordinate 0 and t elsewhere, and a^-1 = den P / N(A).
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        ell, coeffs = self.ell, self.coeffs
        support = [k for k, c in enumerate(coeffs) if c]
        if len(support) == 1:
            k, inv = support[0], 1 / coeffs[support[0]]
        elif len(support) == ell - 1 and len(set(coeffs)) == 1:
            k, inv = ell - 1, -1 / coeffs[0]
        else:
            den, a = cyclotomic_field(ell).split(self)
            conj = [1]
            for k in range(2, ell):
                sigma = [0] * ell
                for i, x in enumerate(a):
                    sigma[i * k % ell] = x
                conj = _cyclic_product(conj, sigma, ell)
            prod = _cyclic_product(a, conj, ell)
            norm = prod[0] - prod[1]
            return CycQ(ell, [Fraction(den * c, norm) for c in _reduce_residues(conj, ell, ell)])
        k = -k % ell
        if k < ell - 1:
            return CycQ(ell, tuple(inv if i == k else _ZERO for i in range(ell - 1)))
        return CycQ(ell, (-inv,) * (ell - 1))

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycQ):
            return self.ell == other.ell and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.ell, self.coeffs))

    # -- text -----------------------------------------------------------

    def __repr__(self):
        return f"CycQ({self.ell}, {self})"

    def __str__(self):
        return format_terms(((k, c) for k, c in enumerate(self.coeffs) if c), "zeta")


class RationalField:
    """Coefficient-ring adapter for plain rationals."""

    _rank = 0
    name = "QQ"
    width = 1
    zero = _ZERO
    one = _ONE

    @staticmethod
    def of(x):
        return as_rational(x)

    @staticmethod
    def split(x):
        """(denominator, integer coordinates) of x."""
        x = as_rational(x)
        return x.denominator, (x.numerator,)

    @staticmethod
    def view(den, coords) -> Fraction:
        return Fraction(coords[0], den)

    @staticmethod
    def invert(x):
        x = as_rational(x)
        if not x:
            raise ZeroDivisionError("division by zero")
        return 1 / x

    @staticmethod
    def encode(x):
        return rational_str(x)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class CyclotomicField:
    """Coefficient-ring adapter for Q(zeta_l), l prime."""

    _rank = 1

    def __init__(self, ell: int):
        if ell < 3 or not is_prime(ell):
            raise ValueError(f"cyclotomic order must be a prime >= 3, got {ell}")
        self.ell = ell
        self.name = f"QQ(zeta_{ell})"
        self.width = ell - 1
        n = ell - 1
        self.zero = CycQ(ell, (_ZERO,) * n)
        self.one = CycQ(ell, (_ONE,) + (_ZERO,) * (n - 1))

    def zeta(self, power: int = 1) -> CycQ:
        """The root of unity zeta^power, reduced into the power basis."""
        k = power % self.ell
        n = self.ell - 1
        if k < n:
            return CycQ(self.ell, tuple(_ONE if i == k else _ZERO for i in range(n)))
        return CycQ(self.ell, (-_ONE,) * n)

    def of(self, x) -> CycQ:
        if isinstance(x, CycQ):
            if x.ell != self.ell:
                raise ValueError(f"element of Q(zeta_{x.ell}) given to {self.name}")
            return x
        return CycQ(self.ell, (as_rational(x),) + (_ZERO,) * (self.ell - 2))

    def invert(self, x) -> CycQ:
        return self.of(x).inverse()

    def split(self, x):
        """(denominator, l-1 integer power-basis coordinates) of x."""
        coords = self.of(x).coeffs
        den = math.lcm(*(c.denominator for c in coords))
        return den, tuple(c.numerator * (den // c.denominator) for c in coords)

    def view(self, den, coords) -> CycQ:
        return CycQ(self.ell, tuple(Fraction(c, den) for c in coords))

    def encode(self, x):
        return [rational_str(c) for c in self.of(x).coeffs]

    def __repr__(self):
        return self.name


# The largest order the paper uses, and the cap on `qrank coeffs --ell` and on
# the l of a `coeffs` T(a, b, l): `coeffs` of jac(1,1,2)*poch(2,1,1,40) to
# q^1000 takes 1.9 s at ell = 13, and its evaluation alone 6.4 s at 31.
ELL_MAX = 13


@lru_cache(maxsize=None)
def cyclotomic_field(ell: int) -> CyclotomicField:
    return CyclotomicField(ell)
