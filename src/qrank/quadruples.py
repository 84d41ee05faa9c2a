"""The partition quadruples behind u(n) and v(n): enumeration and rank counts.

A quadruple is a 4-tuple (p1, p2, p3, p4) of partitions, each a tuple of parts
in non-increasing order.  It belongs to the family U (``in_family``) when p1 is
non-empty, the smallest part s(p1) is minimal among all four partitions, and
the largest part of p4 is at most 2 s(p1); V additionally requires s(p1) to
repeat.  ``omega`` counts the parts of p1 that equal s(p1) or exceed s(p1) +
#(p4); the u-rank and v-rank (``rank``) are omega - 1 (resp. omega - 2) +
2#(p2) - 2#(p3) - #(p4).

Two independent paths serve two jobs.  Enumeration lists every member and
serves the rank tables and ``verify``'s bivariate agreement check; it grows
with u(n), so the CLI caps it at RANKTABLE_MAX_N.  A dynamic program over
packed z-polynomials counts members by rank without listing them and serves
the histograms and class totals (``rank_counts``, ``class_counts``); it
takes about 3 ms at n = 40, the CLI's CLASSES_MAX_N, and 12 ms at n = 60
(kind "u", median of 30 calls on one pinned CPU of a 2-core x86 Xeon,
CPython 3.11).  Its in-place kernel (``_divide``, ``_multiply``) also steps
``rankgen._bivariate``, so the tests hold the DP against the listing.
"""

from __future__ import annotations

from functools import lru_cache

RANKTABLE_MAX_N = 18   # u(18) = 380,475 rows
CLASSES_MAX_N = 40


def in_family(quad, kind: str) -> bool:
    """Whether the quadruple (p1, p2, p3, p4) belongs to U (kind "u") or V ("v")."""
    p1, p2, p3, p4 = quad
    if not p1:
        return False
    s = p1[-1]
    if any(p and p[-1] < s for p in (p2, p3, p4)) or (p4 and p4[0] > 2 * s):
        return False
    return kind == "u" or (len(p1) >= 2 and p1[-2] == s)


def omega(quad) -> int:
    """How many parts of p1 equal s(p1) or exceed s(p1) + #(p4)."""
    p1, p4 = quad[0], quad[3]
    s = p1[-1]
    cutoff = s + len(p4)
    return sum(1 for p in p1 if p == s or p > cutoff)


def rank(quad, kind: str) -> int:
    """The u-rank (kind "u") or v-rank ("v") of a family member."""
    return omega(quad) + _rank_offset(quad, kind)


def _rank_offset(quad, kind: str) -> int:
    """The rank less omega: 2#(p2) - 2#(p3) - #(p4), less 1 (u) or 2 (v)."""
    _, p2, p3, p4 = quad
    return 2 * len(p2) - 2 * len(p3) - len(p4) - (1 if kind == "u" else 2)


def _check_kind(kind: str):
    if kind not in ("u", "v"):
        raise ValueError(f"kind must be 'u' or 'v', got {kind!r}")


@lru_cache(maxsize=None)
def _partitions(total: int, min_part: int, max_part) -> tuple:
    if total == 0:
        return ((),)
    out = []
    hi = total if max_part is None else min(max_part, total)
    for p in range(hi, min_part - 1, -1):
        for rest in _partitions(total - p, min_part, p):
            out.append((p,) + rest)
    return tuple(out)


def enumerate_quadruples(n: int, kind: str = "u") -> list[tuple]:
    """All family members with total part-sum n, in deterministic order.

    Members are generated by the smallest part s of p1: p1 runs over
    partitions with smallest part exactly s (twice for the v family), p2 and
    p3 over partitions with parts >= s, and p4 over partitions with parts in
    [s, 2s].  Output is sorted lexicographically by (s, p1, p2, p3, p4).
    """
    _check_kind(kind)
    if n < 1:
        raise ValueError("n must be >= 1")
    forced = 1 if kind == "u" else 2
    quads = []
    for s in range(1, n // forced + 1):
        anchor = (s,) * forced
        for t1 in range(forced * s, n + 1):
            for core in _partitions(t1 - forced * s, s, None):
                p1 = core + anchor
                rem = n - t1
                for t2 in range(rem + 1):
                    for p2 in _partitions(t2, s, None):
                        for t3 in range(rem - t2 + 1):
                            for p3 in _partitions(t3, s, None):
                                for p4 in _partitions(rem - t2 - t3, s, 2 * s):
                                    quads.append((p1, p2, p3, p4))
    quads.sort(key=lambda quad: (quad[0][-1], quad))
    return quads


def _divide(table: list, part: int, shift: int = 0) -> None:
    """Multiply a packed table by 1/(1 - z^k q^part) in place.

    ``table[t]`` is the coefficient of q^t, packed in z; multiplying by z^k
    shifts it ``shift`` bits, left when positive and right when negative
    (a shift by 0 would copy a long integer, so z^0 is a plain add).
    """
    if shift > 0:
        for t in range(part, len(table)):
            table[t] += table[t - part] << shift
    elif shift < 0:
        for t in range(part, len(table)):
            table[t] += table[t - part] >> -shift
    else:
        for t in range(part, len(table)):
            table[t] += table[t - part]


def _multiply(table: list, part: int, shift: int) -> None:
    """Multiply a packed table by (1 - z^k q^part) in place, z^k a left shift by ``shift`` bits."""
    for t in range(len(table) - 1, part - 1, -1):
        table[t] -= table[t - part] << shift


def rank_counts(n: int, kind: str = "u") -> dict[int, int]:
    """Histogram rank -> number of family members of n with that rank, a fresh
    copy of the one ``_rank_counts`` keeps per (n, kind)."""
    return dict(_rank_counts(n, kind))


@lru_cache(maxsize=None)
def _rank_counts(n: int, kind: str) -> dict[int, int]:
    """The rank histogram of n, counted by dynamic programming, without
    listing any member.  For the smallest part s of p1 and m = #(p4), the
    members carry

        z^-m A_s prod_{s<k<=s+m} (1 - z q^k)/(1 - q^k) q^(ms) [m+s, m]_q,
        A_s = prod_{k>=s} 1/((1 - z q^k)(1 - z^2 q^k)(1 - z^-2 q^k)),

    at q^rest, rest = n - forced*s, with forced = 1 s-part for u and 2 for v
    (they count in omega and cancel the rank's -1, resp. -2).  A_s holds p1's
    further parts at weight z, p2 and p3, and is carried as s falls; the
    product takes p1's parts s+1..s+m out of omega; the Gaussian polynomial
    counts p4, whose m parts in [s, 2s], less s each, fill an m x s box
    (Andrews, The Theory of Partitions, 1976, ch. 3).  As [m+s, m]_q /
    [m+s-1, m-1]_q = (1 - q^(s+m))/(1 - q^m), all but z^-m q^(ms) is B_m:

        B_0 = A_s,   B_m = B_(m-1) (1 - z q^(s+m)) / (1 - q^m),

    and the term at m is z^-m B_m at q^(rest - ms); B is cut there first.

    Each coefficient of q is one integer holding its polynomial in z as
    ``width``-bit digits, biased by z^bias so every rank sits at a
    non-negative digit; multiplying by z^k is a shift.  (1 - z q^(s+m))
    cancels a factor 1/(1 - z q^(s+m)) of A_s, so before and after each
    division the table is a product of factors 1/(1 - z^k q^j): a digit at
    q^t counts four partitions (p1's further parts, p2, p3, one with parts
    at most m) of total t <= n, fewer than 5^n (four-coloured compositions),
    as do the digits of the sum over s and m.  So ``width``, the bit length
    of 5^n, holds every digit.  A z-exponent at q^t is at least -2t (p3),
    and a term's at least -2(rest - ms) - m >= -2n, so with bias 2n the right
    shifts (the z^-2 division and z^-m) drop only zero digits.  The keys
    come out in increasing order.
    """
    _check_kind(kind)
    if n < 1:
        raise ValueError("n must be >= 1")
    forced = 1 if kind == "u" else 2
    if n < forced:
        return {}
    top = n - forced                      # weight beside the forced parts at s = 1
    width = (5 ** n).bit_length()
    bias = 2 * n
    carried = [1 << (bias * width)] + [0] * top
    acc = 0
    for s in range(n, 0, -1):
        _divide(carried, s, width)
        _divide(carried, s, 2 * width)
        _divide(carried, s, -2 * width)
        rest = n - forced * s
        if rest < 0:
            continue
        table = carried[:rest + 1]
        acc += table[rest]
        for m in range(1, rest // s + 1):
            del table[rest - m * s + 1:]
            _multiply(table, s + m, width)
            _divide(table, m)
            acc += table[-1] >> (m * width)
    hist = {}
    mask = (1 << width) - 1
    digit = 0
    while acc:
        if acc & mask:
            hist[digit - bias] = acc & mask
        acc >>= width
        digit += 1
    return hist


def class_counts(n: int, kind: str, ell: int) -> list[int]:
    """Residue-class totals of the rank mod ell; sums to u(n) or v(n)."""
    if ell < 2:
        raise ValueError("modulus must be >= 2")
    out = [0] * ell
    for r, c in rank_counts(n, kind).items():
        out[r % ell] += c
    return out


RANK_TABLE_COLUMNS = ("p1", "p2", "p3", "p4", "omega", "rank", "mod3", "mod5", "mod7")


def rank_table(n: int, kind: str = "u") -> list[dict]:
    """One row per family member of n, in enumeration order, keyed by RANK_TABLE_COLUMNS.

    A partition is labelled by its parts joined with "+", the empty one "-".
    """
    labels = {}
    rows = []
    for quad in enumerate_quadruples(n, kind):
        for p in quad:
            if p not in labels:
                labels[p] = "+".join(map(str, p)) or "-"
        p1, p2, p3, p4 = quad
        w = omega(quad)
        r = w + _rank_offset(quad, kind)
        rows.append({"p1": labels[p1], "p2": labels[p2], "p3": labels[p3], "p4": labels[p4],
                     "omega": w, "rank": r, "mod3": r % 3, "mod5": r % 5, "mod7": r % 7})
    return rows
