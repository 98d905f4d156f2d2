"""Exact multivariate polynomial arithmetic over Q and over prime fields.

Monomials are dense exponent tuples of length ``nvars``; a polynomial is a
mapping from exponent tuples to nonzero ``int`` coefficients, any int over
Q and one in [1, p-1] over GF(p): the parser admits integers only and no
operation divides.  Any other coefficient, a ``Fraction``, a float or a
bool, is refused with ``ValueError``.  The default monomial order
everywhere is graded reverse lexicographic.

Each operation has one term-dict implementation, reducing by the field's
``p``, which is None over Q: ``_combine`` for linear combinations (sums,
negation, scaling) and ``_mul_terms`` for products, shared by the parser.
``compose`` is the one linear change of coordinates.

Homogeneity is the normal state of affairs for the geometric pipeline and
is enforced at the parsing boundary and checked by ``degree``; the class
also carries inhomogeneous polynomials: the dehomogenized cuts of the
projective degrees and the affine chart of the Milnor oracle.
"""

from __future__ import annotations

import functools
import operator
import re
import sys

from .errors import PolynomialParseError, RandomnessError

# The largest exponent or degree of a monomial: what one 16-bit field of
# the Groebner kernel's packed monomials holds below its guard bit.  The
# parser refuses a power above it before expanding the power.
LIMIT = (1 << 15) - 1
# The deepest nesting of parentheses the recursive-descent parser takes.
MAX_NESTING = 100
# The most work the parser gives one step of a power of a sum: the terms
# of the expansion so far, times the terms of the sum, times the bits of
# the expansion's largest coefficient.  (x0+x1)^k reaches it near
# k = 1000, after about 0.7 s on a 2-vCPU host.
EXPANSION = 1 << 21

# -- coefficient fields -------------------------------------------------------


# Miller-Rabin with these bases is exact below _PRIME_LIMIT (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


@functools.lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    """Deterministic primality for p < _PRIME_LIMIT, remembered per p:
    every report builds ``PrimeField`` for its primes again."""
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


def _integer(x) -> int:
    if type(x) is not int:
        raise ValueError(f"coefficient {x!r} is not an int")
    return x


class Rationals:
    """The field Q, holding integer coefficients only."""

    kind = "rationals"
    p = None

    def coerce(self, x):
        return _integer(x)

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
        return _integer(x) % self.p

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
            if min(exps, default=0) < 0:
                raise ValueError(f"exponent vector {exps} has a negative exponent")
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
        return self._wrap(_combine((self, other), (1, 1), self.field.p))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return self._wrap(_mul_terms(self.terms, other.terms, self.field.p))

    def scale(self, c) -> "Polynomial":
        return self._wrap(_combine((self,), (self.field.coerce(c),), self.field.p))

    def _wrap(self, terms: dict, nvars: int | None = None) -> "Polynomial":
        """A polynomial over this one's field from checked ``terms``, in
        this one's ring unless ``nvars`` says otherwise."""
        out = object.__new__(Polynomial)
        out.nvars = self.nvars if nvars is None else nvars
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
        p = self.field.p
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            mm = m[:i] + (e - 1,) + m[i + 1 :]
            v = out.get(mm, 0) + c * e
            if p:
                v %= p
            if v:
                out[mm] = v
            elif mm in out:  # c * e is 0 when p divides e
                del out[mm]
        return self._wrap(out)

    def dehomogenize(self, chart: int) -> "Polynomial":
        """Set x_chart = 1 and drop that variable (nvars decreases by one).
        Terms that then share a monomial are added, and dropped when they
        cancel, so inhomogeneous input is dehomogenized correctly too."""
        if not 0 <= chart < self.nvars:
            raise IndexError(f"chart index {chart} out of range")
        out = {}
        p = self.field.p
        for m, c in self.terms.items():
            mm = m[:chart] + m[chart + 1 :]
            v = out.get(mm, 0) + c
            if p:
                v %= p
            if v:
                out[mm] = v
            else:  # c is not 0, so mm was there
                del out[mm]
        return self._wrap(out, self.nvars - 1)


def variable(nvars: int, i: int, field) -> Polynomial:
    return Polynomial(nvars, {tuple(1 if k == i else 0 for k in range(nvars)): 1}, field)


# -- random combinations and field passage -------------------------------------

_DRAWS = 64  # rounds a random combination gets before it gives up


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
    return _random_combination(polys, field.p, rng)


def _random_combination(polys, p, rng) -> Polynomial:
    """``random_linear_combination`` without its checks: ``polys`` is a
    nonempty sequence of nonzero GF(p) forms of one degree.  Draws from
    ``rng`` exactly as the checked function does."""
    for _ in range(_DRAWS):
        acc = _combine(polys, [rng.randrange(p) for _ in polys], p)
        if acc:
            return polys[0]._wrap(acc)
    raise RandomnessError("could not draw a nonzero combination")


def _random_row(columns, p, rng) -> list:
    """The coefficients of a nonzero combination of k polynomials, drawn
    from ``rng`` exactly as ``_random_combination`` draws them.  Each of
    ``columns`` holds the k coefficients of one monomial, and a
    combination counts as zero when it is zero at all of them, so they
    must hold every monomial that leads a nonzero combination."""
    k = len(columns[0])
    for _ in range(_DRAWS):
        row = [rng.randrange(p) for _ in range(k)]
        if any(sum(map(operator.mul, row, col)) % p for col in columns):
            return row
    raise RandomnessError("could not draw a nonzero combination")


def _combine(polys, row, p=None) -> dict:
    """The terms of sum_j row[j] * polys[j], reduced mod p unless p is
    None (over Q), in the order the sum meets them."""
    acc = {}
    for f, c in zip(polys, row):
        if not c:
            continue
        for m, v in f.terms.items():
            w = acc.get(m, 0) + c * v
            if p:
                w %= p
            if w:
                acc[m] = w
            else:
                del acc[m]
    return acc


def _mul_terms(a: dict, b: dict, p=None) -> dict:
    """The product of two term dicts without zeros, reduced mod p unless
    p is None (over Q)."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(operator.add, m1, m2))
            v = out.get(m, 0) + c1 * c2
            if p:
                v %= p
            if v:
                out[m] = v
            else:  # c1 * c2 is not 0, so m was there
                del out[m]
    return out


def compose(f: Polynomial, forms) -> Polynomial:
    """f(forms[0], ..., forms[nvars-1]): every x_i of f replaced by
    ``forms[i]``, a polynomial in f's ring, and expanded.  With linear
    forms this is the linear change of coordinates x_i -> forms[i]."""
    forms = list(forms)
    if len(forms) != f.nvars:
        raise ValueError(f"need {f.nvars} forms, got {len(forms)}")
    for g in forms:
        f._check_compatible(g)
    p = f.field.p
    one = {(0,) * f.nvars: 1}
    powers = [[one] for _ in forms]
    monomials = []
    for m in f.terms:
        acc = one
        for e, g, pw in zip(m, forms, powers):
            while len(pw) <= e:
                pw.append(_mul_terms(pw[-1], g.terms, p))
            if e:
                acc = _mul_terms(acc, pw[e], p)
        monomials.append(f._wrap(acc))
    return f._wrap(_combine(monomials, f.terms.values(), p))


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


def _too_long(what, digits) -> PolynomialParseError:
    return PolynomialParseError(
        f"{what} has more than {digits} digits, the bound that"
        " sys.get_int_max_str_digits() sets on an integer's text"
    )


@functools.lru_cache(maxsize=4)  # 10**4300 takes longer than a typical parse
def _power_of_ten(k: int) -> int:
    return 10**k


def _tokenize(text: str, digits: int):
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
            if digits and len(num) > digits:
                raise _too_long("an integer literal", digits)
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
    atom := int | var | ( expr ).

    The grammar admits integer coefficients only, so every rule returns a
    term dict ``{exponent tuple: int}`` without zeros; ``parse_poly``
    makes the one ``Polynomial`` over Q.  A power of a sum is expanded by
    one product per unit of its exponent, each refused before it is taken
    once the expansion's terms, times the sum's, times the bits of its
    largest coefficient pass ``EXPANSION``; a power c^k x^(k m) of one
    term is taken at once.  An exponent above ``LIMIT``, or a power of
    degree above it, is refused before either; so are parentheses nested
    deeper than ``MAX_NESTING``, before the recursion reaches Python's
    limit.  Every product, and each step of a power, is refused once a
    coefficient has more than ``digits`` decimal digits (none is when
    ``digits`` is 0), before it can grow further; a power of one term
    is refused before it is taken when |c|^k is above 16^digits."""

    def __init__(self, tokens, nvars, digits):
        self.tokens = tokens
        self.i = 0
        self.nvars = nvars
        self.one = (0,) * nvars
        self.depth = 0  # parentheses open around the current atom
        self.digits = digits
        self.bound = _power_of_ten(digits) if digits else 0  # the least refused

    def bounded(self, terms) -> dict:
        if self.bound and any(map(self.bound.__le__, map(abs, terms.values()))):
            raise _too_long("a coefficient", self.digits)
        return terms

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> dict:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        acc = {m: sign * c for m, c in self.term().items()}
        while self.peek() in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
            for m, c in self.term().items():
                v = acc.get(m, 0) + sign * c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            acc = self.bounded(_mul_terms(acc, self.factor()))
        return acc

    def factor(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            kind, val = self.next()
            if kind != "num":
                raise PolynomialParseError("exponent must be a nonnegative integer")
            degree = val * max(map(sum, base), default=0)
            if max(val, degree) > LIMIT:
                raise PolynomialParseError(
                    f"a power with exponent {val} and degree {degree} is above"
                    f" {LIMIT}, the largest exponent or degree a monomial may have"
                )
            if len(base) == 1:  # the common x^m: no product, no check per step
                ((m, c),) = base.items()
                if (c.bit_length() - 1) * val > 4 * self.digits > 0:
                    raise _too_long("a coefficient", self.digits)
                return self.bounded({tuple(val * k for k in m): c**val})
            out = {self.one: 1}
            for _ in range(val):
                bits = max(map(abs, out.values()), default=0).bit_length()
                if len(out) * len(base) * bits > EXPANSION:
                    raise PolynomialParseError(
                        f"a power of a sum of {len(base)} terms grew to {len(out)} terms"
                        f" of up to {bits} bits, past {EXPANSION} term-bit products"
                        " per step, the most the parser expands"
                    )
                out = self.bounded(_mul_terms(out, base))
            return out
        return base

    def atom(self) -> dict:
        kind, val = self.next()
        if kind == "num":
            return {self.one: val} if val else {}
        if kind == "var":
            if val >= self.nvars:
                raise PolynomialParseError(
                    f"unknown variable x{val}: only x0..x{self.nvars - 1} are in scope"
                )
            return {tuple(int(k == val) for k in range(self.nvars)): 1}
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolynomialParseError(
                    f"parentheses nested more than {MAX_NESTING} deep"
                )
            inner = self.expr()
            if self.next()[0] != ")":
                raise PolynomialParseError("unbalanced parentheses")
            self.depth -= 1
            return inner
        raise PolynomialParseError(f"unexpected token {kind!r}")


def parse_poly(text: str, nvars: int) -> Polynomial:
    """Parse homogeneous polynomial text in variables x0..x{nvars-1} over Q.

    Grammar: integer coefficients, ``+ - * ^`` and parentheses.  Raises
    on syntax errors, unknown variables, a fully cancelling (zero) result,
    a non-homogeneous result, or an integer, read or computed, of more
    decimal digits than ``sys.get_int_max_str_digits()`` allows, which
    could not be written back as text.
    """
    if nvars < 1:
        raise PolynomialParseError("nvars must be at least 1")
    digits = sys.get_int_max_str_digits()
    parser = _Parser(_tokenize(text, digits), nvars, digits)
    terms = parser.bounded(parser.expr())
    if parser.peek() != "end":
        raise PolynomialParseError(f"trailing input at token {parser.peek()!r}")
    if not terms:
        raise PolynomialParseError("polynomial is identically zero")
    poly = Polynomial(nvars, terms, QQ)
    if not poly.is_homogeneous():
        raise PolynomialParseError("polynomial is not homogeneous")
    return poly


def to_string(f: Polynomial) -> str:
    """Canonical text form; terms sorted grevlex-descending, parse-compatible."""
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
