"""Exact arithmetic in the Chow ring of projective n-space.

A class is a truncated polynomial a_0 + a_1*h + ... + a_n*h^n in the
hyperplane class h, i.e. an element of Z[h]/(h^(n+1)) with rational
coefficients, graded by codimension: ``coeffs[i]`` is the codimension-i
piece, and the dimension-m piece of a class on P^n sits in codimension
n - m.  All arithmetic is exact (``fractions.Fraction``); no floating
point enters this module.

Besides the ring operations, the module implements the two operations on
codimension-graded classes that drive every formula downstream: ``dual``
(flip the sign of each odd-codimension piece) and ``tensor`` (divide the
codimension-i piece by the i-th power of the total Chern class 1 + d*h of
a degree-d line bundle, then re-truncate).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


class ChowClass:
    """An element of Z[h]/(h^(n+1)) with exact rational coefficients.

    Immutable after construction; all operations return new instances, so
    values can be shared freely across concurrent tasks.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != n + 1:
            raise ValueError(
                f"expected {n + 1} coefficients for P^{n}, got {len(cs)}"
            )
        self.n = n
        self.coeffs = cs

    # -- ring structure ------------------------------------------------

    def _check_same_ambient(self, other: "ChowClass") -> None:
        if self.n != other.n:
            raise ValueError(
                f"ambient dimension mismatch: P^{self.n} vs P^{other.n}"
            )

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check_same_ambient(other)
        return ChowClass(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        self._check_same_ambient(other)
        return ChowClass(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "ChowClass":
        return ChowClass(self.n, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, ChowClass):
            self._check_same_ambient(other)
            n = self.n
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return ChowClass(n, out)
        return ChowClass(self.n, [a * Fraction(other) for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ChowClass":
        if k < 0:
            return self.inverse() ** (-k)
        out = unit(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"ChowClass({self.n}, {self.to_h_string()!r})"

    # -- derived operations ---------------------------------------------

    def inverse(self) -> "ChowClass":
        """Truncated multiplicative inverse of a unit (nonzero constant term)."""
        a = self.coeffs
        if a[0] == 0:
            raise ValueError("class is not a unit: codimension-0 coefficient is 0")
        n = self.n
        b = [Fraction(0)] * (n + 1)
        b[0] = 1 / a[0]
        for k in range(1, n + 1):
            b[k] = -sum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0]
        return ChowClass(n, b)

    def dual(self) -> "ChowClass":
        """Negate each odd-codimension piece.  An involution."""
        return ChowClass(
            self.n, [(-c if i & 1 else c) for i, c in enumerate(self.coeffs)]
        )

    def tensor(self, d: int) -> "ChowClass":
        """Divide the codimension-i piece by (1 + d*h)^i and re-truncate.

        Expanding h^i / (1 + d*h)^i gives the closed form
        out_m = sum_{0 <= k < m} a_(m-k) * C(m-1, k) * (-d)^k and
        out_0 = a_0 (Aluffi, Chern classes for singular hypersurfaces,
        Trans. AMS 1999).  ``tensor(0)`` is the identity.
        """
        a = self.coeffs
        out = [a[0]] + [
            sum(a[m - k] * comb(m - 1, k) * (-d) ** k for k in range(m))
            for m in range(1, self.n + 1)
        ]
        return ChowClass(self.n, out)

    def integral(self) -> Fraction:
        """Degree of the class: the coefficient of h^n."""
        return self.coeffs[self.n]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    # -- rendering and serialization --------------------------------------

    def to_strings(self) -> list[str]:
        """Codimension-indexed exact rationals, "p/q" or integer form."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, n: int, strings) -> "ChowClass":
        return cls(n, [Fraction(s) for s in strings])

    def to_h_string(self) -> str:
        """Human form as a polynomial in h, e.g. ``2h + 3h^2``."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "1" if i == 0 else ("h" if i == 1 else f"h^{i}")
            if i == 0:
                body = str(c)
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}{mono}"
            if not parts:
                parts.append(body if c > 0 or i == 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def to_bracket_string(self) -> str:
        """Human form by dimension, e.g. ``2[P^1] + 3[P^0]``."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            body = f"[P^{self.n - i}]" if abs(c) == 1 else f"{abs(c)}[P^{self.n - i}]"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


# -- constructors -----------------------------------------------------------


def unit(n: int) -> ChowClass:
    """The fundamental class [P^n] = 1."""
    return ChowClass(n, [1] + [0] * n)


def hyperplane_power(n: int, k: int) -> ChowClass:
    """The class h^k on P^n (zero when k > n)."""
    coeffs = [0] * (n + 1)
    if 0 <= k <= n:
        coeffs[k] = 1
    return ChowClass(n, coeffs)


def line_bundle(n: int, d: int) -> ChowClass:
    """Total Chern class 1 + d*h of the degree-d line bundle on P^n."""
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(1)
    if n >= 1:
        coeffs[1] = Fraction(d)
    return ChowClass(n, coeffs)


def chern_tangent_pn(n: int) -> ChowClass:
    """Total Chern class of the tangent bundle of P^n: (1 + h)^(n+1) truncated."""
    if n < 0:
        raise ValueError("ambient dimension must be nonnegative")
    return ChowClass(n, [comb(n + 1, i) for i in range(n + 1)])

