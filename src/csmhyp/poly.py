"""Exact multivariate polynomial arithmetic over Q and over prime fields.

Monomials are dense exponent tuples of length ``nvars``; a polynomial is a
mapping from exponent tuples to nonzero field elements (Fraction over Q,
int in [1, p-1] over GF(p)).  The default monomial order everywhere is
graded reverse lexicographic.

Homogeneity is the normal state of affairs for the geometric pipeline and
is enforced at the parsing boundary and checked by ``degree``; the class
itself also carries the inhomogeneous intermediates required by ideal
saturation (the extra-variable trick) and by the affine Milnor oracle.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import PolynomialParseError, RandomnessError


# -- coefficient fields -------------------------------------------------------


# Miller-Rabin with these bases is exact below _PRIME_LIMIT (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < _PRIME_LIMIT."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q; coefficients are ``fractions.Fraction``."""

    kind = "rationals"

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field GF(p); coefficients are ints reduced to [0, p-1]."""

    kind = "prime"

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= _PRIME_LIMIT:
            raise ValueError(
                f"prime {p} is too large: primes up to {_PRIME_LIMIT - 1} "
                "are supported"
            )
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def coerce(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ValueError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def grevlex_key(exps: tuple) -> tuple:
    """Sort key realizing graded reverse lexicographic order.

    Tuples compare lexicographically, so ``key(a) > key(b)`` iff a > b in
    grevlex: higher total degree wins, ties broken by the smaller exponent
    on the last variable where they differ.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


class Polynomial:
    """Sparse exact polynomial in ``nvars`` variables over ``field``.

    Immutable by convention: ``terms`` is never mutated after construction,
    and every operation returns a fresh instance.
    """

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, terms, field):
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            c = field.coerce(c)
            if c != 0:
                clean[tuple(exps)] = c
        self.nvars = nvars
        self.field = field
        self.terms = clean

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    @property
    def degree(self):
        """Common total degree of all terms; None for zero, error if mixed."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.field != other.field:
            raise ValueError("coefficient field mismatch")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        add = self.field.add
        for m, c in other.terms.items():
            v = add(out.get(m, 0), c)
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return self._wrap(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        neg = self.field.neg
        return self._wrap({m: neg(c) for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = {}
        add, mul = self.field.add, self.field.mul
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = add(out.get(m, 0), mul(c1, c2))
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return self._wrap(out)

    def scale(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if c == 0:
            return self._wrap({})
        mul = self.field.mul
        return self._wrap({m: mul(v, c) for m, v in self.terms.items()})

    def _wrap(self, terms: dict) -> "Polynomial":
        out = object.__new__(Polynomial)
        out.nvars = self.nvars
        out.field = self.field
        out.terms = terms
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.field, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {to_string(self)!r}, {self.field!r})"

    # -- calculus and charts ------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        out = {}
        add = self.field.add
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            mm = m[:i] + (e - 1,) + m[i + 1 :]
            v = add(out.get(mm, 0), self.field.mul(c, self.field.coerce(e)))
            if v:
                out[mm] = v
            elif mm in out:
                del out[mm]
        return self._wrap(out)

    def dehomogenize(self, chart: int) -> "Polynomial":
        """Set x_chart = 1 and drop that variable (nvars decreases by one)."""
        if not 0 <= chart < self.nvars:
            raise IndexError(f"chart index {chart} out of range")
        out = {}
        for m, c in self.terms.items():
            mm = m[:chart] + m[chart + 1 :]
            v = self.field.add(out.get(mm, 0), c)
            if v:
                out[mm] = v
            elif mm in out:
                del out[mm]
        return Polynomial(self.nvars - 1, out, self.field)


def constant(nvars: int, c, field) -> Polynomial:
    return Polynomial(nvars, {(0,) * nvars: c}, field)


def variable(nvars: int, i: int, field) -> Polynomial:
    return Polynomial(nvars, {tuple(1 if k == i else 0 for k in range(nvars)): 1}, field)


# -- calculus, checks, and field passage ---------------------------------------


def euler_check(f: Polynomial) -> bool:
    """Whether sum x_i * df/dx_i equals deg(f) * f in the working field.

    Over GF(p) with p dividing deg(f) the relation degenerates to 0 = 0 and
    certifies nothing, so this returns False there; over Q it is an
    identity of formal calculus.
    """
    if f.is_zero:
        return False
    d = f.degree
    if f.field.kind == "prime" and d % f.field.p == 0:
        return False
    acc = Polynomial(f.nvars, {}, f.field)
    for i in range(f.nvars):
        acc = acc + variable(f.nvars, i, f.field) * f.partial(i)
    return acc == f.scale(d)


def random_linear_combination(polys, rng) -> Polynomial:
    """A random GF(p) linear combination of polynomials of one common degree.

    Coefficients are uniform in GF(p); an all-cancelling draw is retried so
    the result is a uniformly random nonzero element of the span.
    Reproducible from the caller's seeded ``rng``.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("no polynomials to combine")
    field = polys[0].field
    if field.kind != "prime":
        raise ValueError("random combinations are drawn over a prime field")
    degs = {f.degree for f in polys}
    if len(degs) != 1 or None in degs:
        raise ValueError("polynomials must share a single common degree")
    p = field.p
    for _ in range(64):
        acc = Polynomial(polys[0].nvars, {}, field)
        for f in polys:
            acc = acc + f.scale(rng.randrange(p))
        if not acc.is_zero:
            return acc
    raise RandomnessError("could not draw a nonzero combination")


def reduce_mod_p(f: Polynomial, p: int) -> Polynomial:
    """Coefficientwise reduction of a Q-polynomial into GF(p)."""
    if f.field.kind != "rationals":
        raise ValueError("input must be a polynomial over Q")
    gf = PrimeField(p)
    out = Polynomial(f.nvars, f.terms, gf)
    if not f.is_zero and out.is_zero:
        raise ValueError(f"polynomial vanishes identically mod {p}: bad prime")
    return out


# -- text format --------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([+\-*^()])|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        num, var, op, bad = m.groups()
        if bad is not None:
            raise PolynomialParseError(f"unexpected character {bad!r} at position {m.start(4)}")
        if num is not None:
            tokens.append(("num", int(num)))
        elif var is not None:
            tokens.append(("var", int(var[1:])))
        else:
            tokens.append((op, None))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent over: expr := [±] term {± term};
    term := factor {* factor}; factor := atom [^ int];
    atom := int | var | ( expr )."""

    def __init__(self, tokens, nvars):
        self.tokens = tokens
        self.i = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        acc = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            acc = acc + (t if op == "+" else -t)
        return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            kind, val = self.next()
            if kind != "num":
                raise PolynomialParseError("exponent must be a nonnegative integer")
            out = constant(self.nvars, 1, QQ)
            for _ in range(val):
                out = out * base
            return out
        return base

    def atom(self) -> Polynomial:
        kind, val = self.next()
        if kind == "num":
            return constant(self.nvars, val, QQ)
        if kind == "var":
            if val >= self.nvars:
                raise PolynomialParseError(
                    f"unknown variable x{val}: only x0..x{self.nvars - 1} are in scope"
                )
            return variable(self.nvars, val, QQ)
        if kind == "(":
            inner = self.expr()
            if self.next()[0] != ")":
                raise PolynomialParseError("unbalanced parentheses")
            return inner
        raise PolynomialParseError(f"unexpected token {kind!r}")


def parse_poly(text: str, nvars: int) -> Polynomial:
    """Parse homogeneous polynomial text in variables x0..x{nvars-1} over Q.

    Grammar: integer coefficients, ``+ - * ^`` and parentheses.  Raises
    on syntax errors, unknown variables, a fully cancelling (zero) result,
    or a non-homogeneous result.
    """
    if nvars < 1:
        raise PolynomialParseError("nvars must be at least 1")
    parser = _Parser(_tokenize(text), nvars)
    try:
        poly = parser.expr()
    except IndexError:
        raise PolynomialParseError("unexpected end of input") from None
    if parser.peek() != "end":
        raise PolynomialParseError(f"trailing input at token {parser.peek()!r}")
    if poly.is_zero:
        raise PolynomialParseError("polynomial is identically zero")
    if not poly.is_homogeneous():
        raise PolynomialParseError("polynomial is not homogeneous")
    return poly


def to_string(f: Polynomial) -> str:
    """Canonical text form; terms sorted grevlex-descending, parse-compatible
    whenever all coefficients are integers."""
    if f.is_zero:
        return "0"
    parts = []
    for m in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        mono = "*".join(factors)
        negative = c < 0  # GF(p) coefficients live in [1, p-1], never negative
        mag = -c if negative else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)
