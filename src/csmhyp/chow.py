"""Exact arithmetic in the Chow ring of projective n-space.

A class is a truncated polynomial a_0 + a_1*h + ... + a_n*h^n in the
hyperplane class h, i.e. an element of Z[h]/(h^(n+1)), graded by
codimension: ``coeffs[i]`` is the codimension-i piece, and the
dimension-m piece of a class on P^n sits in codimension n - m.
Coefficients are ``int`` and nothing else, so all arithmetic is exact
and equal classes store equal coefficients.  The units of the ring are
the classes with constant term +-1, and only those have an inverse.

Besides the ring operations, the module implements the two operations on
codimension-graded classes that drive every formula downstream: ``dual``
(flip the sign of each odd-codimension piece) and ``tensor`` (divide the
codimension-i piece by the i-th power of the total Chern class 1 + d*h of
a degree-d line bundle, then re-truncate).  The one constructor of a
power (1 + d*h)^k, for every integer k, is ``line_bundle(n, d, k)``: it
builds c(L)^k for c(L) = 1 + d*h, its inverse c(L)^-1, and
c(TM) = (1 + h)^(n+1) (``chern_tangent_pn``), in closed form.
"""

from __future__ import annotations

from math import comb


class ChowClass:
    """An element of Z[h]/(h^(n+1)); every coefficient is an ``int``.

    Immutable after construction; all operations return new instances, so
    values can be shared freely across concurrent tasks.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        cs = tuple(coeffs)
        for c in cs:
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} is not an int")
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
            out = [0] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return ChowClass(n, out)
        return ChowClass(self.n, [a * other for a in self.coeffs])

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
        """Truncated multiplicative inverse of a unit (constant term +-1,
        which is its own inverse)."""
        a = self.coeffs
        inv = a[0]
        if inv not in (1, -1):
            raise ValueError(
                f"class is not a unit: codimension-0 coefficient {inv} is not +-1"
            )
        n = self.n
        b = [0] * (n + 1)
        b[0] = inv
        for k in range(1, n + 1):
            b[k] = -inv * sum(a[i] * b[k - i] for i in range(1, k + 1))
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
        Trans. AMS 1999).  ``tensor(0)`` is the identity.  A zero a_(m-k)
        adds nothing, so its binomial is not computed.
        """
        a = self.coeffs
        out = [a[0]] + [
            sum(a[m - k] * comb(m - 1, k) * (-d) ** k for k in range(m) if a[m - k])
            for m in range(1, self.n + 1)
        ]
        return ChowClass(self.n, out)

    def integral(self) -> int:
        """Degree of the class: the coefficient of h^n."""
        return self.coeffs[self.n]

    # -- rendering and serialization --------------------------------------

    def to_strings(self) -> list[str]:
        """Codimension-indexed coefficients as decimal integer strings."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, n: int, strings) -> "ChowClass":
        return cls(n, [int(s) for s in strings])

    def _signed_sum(self, monomial) -> str:
        """The nonzero terms ``c * monomial(i)`` joined by their signs,
        e.g. ``-h + 2h^2``; a coefficient +-1 shows only its sign unless the
        monomial is empty.  The zero class is ``0``."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                mono = monomial(i)
                body = mono if abs(c) == 1 and mono else f"{abs(c)}{mono}"
                if parts:
                    parts.append(f"- {body}" if c < 0 else f"+ {body}")
                else:
                    parts.append(f"-{body}" if c < 0 else body)
        return " ".join(parts) or "0"

    def to_h_string(self) -> str:
        """Human form as a polynomial in h, e.g. ``2h + 3h^2``."""
        return self._signed_sum(lambda i: "" if i == 0 else "h" if i == 1 else f"h^{i}")

    def to_bracket_string(self) -> str:
        """Human form by dimension, e.g. ``2[P^1] + 3[P^0]``."""
        return self._signed_sum(lambda i: f"[P^{self.n - i}]")


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


def line_bundle(n: int, d: int, k: int = 1) -> ChowClass:
    """(1 + d*h)^k on P^n for every integer k: the class
    sum_j C(k, j) d^j h^j, with C(k, j) = k (k-1) ... (k-j+1) / j!.

    The coefficients come from c_0 = 1, c_j = c_(j-1) (k - j + 1) d // j.
    The division is exact: c_(j-1) (k - j + 1) d = j C(k, j) d^j, and
    C(k, j) is an integer for every integer k (for k < 0 it is
    (-1)^j C(j - k - 1, j)), so no sign case is needed.  With k = 1 this
    is the total Chern class 1 + d*h of the degree-d line bundle, and
    with k = -1 it is sum_j (-d)^j h^j.
    """
    coeffs = [1]
    for j in range(1, n + 1):
        coeffs.append(coeffs[-1] * (k - j + 1) * d // j)
    return ChowClass(n, coeffs)


def chern_tangent_pn(n: int) -> ChowClass:
    """Total Chern class of the tangent bundle of P^n: (1 + h)^(n+1) truncated."""
    return line_bundle(n, 1, n + 1)
