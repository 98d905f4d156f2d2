"""Segre class of the singular scheme of a hypersurface in P^n.

The singular scheme Y of F is cut by the partial derivatives of F (F
itself is redundant in P^n when the characteristic does not divide deg F,
by the Euler relation; primes violating that are rejected).  Its Segre
class, pushed forward to the Chow ring of P^n, is assembled from the
projective degrees of the gradient map p -> (dF/dx_0 : ... : dF/dx_n):

    g_i = degree of the zero-dimensional residual of i random combinations
          of the partials and n-i random hyperplanes, after saturating
          away the base locus by one random combination g of the partials,

and then

    s(Y, P^n) = 1 - sum_j g_j * h^j / (1 + e*h)^(j+1),    e = deg F - 1.

g_0 is the degree of P^n, so it is 1 and is not computed.  Nor is g_1:
the h^1 coefficient of s(Y, P^n) is e - g_1, which Y fixes, so
g_1 = e - deg Y when Y has codimension one and e otherwise (``_certify``
holds the proof).  When the partials span only r < n + 1 forms mod p, as
for a cone, the gradient map lands in a P^(r-1) and g_i = 0 for every
i >= r (Huh, "Milnor numbers of projective hypersurfaces and the
chromatic polynomial of graphs", JAMS 25 (2012)): i generic combinations
span all the partials, so the cut contains the jacobian ideal, and
saturating by g, which lies in it, leaves the unit ideal.  Those cuts are
not drawn either; r is the number of columns of the jacobian scheme.

For n >= 3, g_2 needs no Groebner basis.  On the plane through three
random points g_2 counts the roots of a resultant: seen from the third
point, the two curves of the cut meet on the lines where Res(f1, f2)
vanishes, and g_2 is what is left of it once every root it shares with
Res(f1, g) is removed.  Each form is restricted to that plane from its
values at the (e+1)(e+2)/2 nodes of a triangle, which fix a ternary
form of degree e.  Every other cut is counted in an affine chart.  It
is built from row-reduced combinations: its i combinations of the
partials are brought to an echelon form, each 0 at the others' pivots,
and it is saturated by g reduced modulo them, which differs from g by
an element of the cut ideal and so saturates it exactly as g does; for
the top cut that g is one partial.  The chart is x_k = 1 for the last
variable x_k that divides every term of g, and x_n = 1 when none does.
The generators and g are dehomogenized, saturated by one elimination
with ``saturate``, and g_i is the number of standard monomials of the
result: the length of the residual at its points off the hyperplane
x_k = 0.  When x_k divides g, that hyperplane lies in V(g), which the
saturation removes anyway, so the count is the projective one.  In the
chart x_n = 1 of a g that no variable divides, a residual point on
x_n = 0 is lost; random cuts make that about as rare as an unlucky g,
and since it can only lower g_i, the acceptance rule treats it the same
way.

When Y lies in x_n = 0, as it does whenever F is smooth, no cut needs g.
The jacobian basis says so at no cost: in grevlex with x_n last, x_n^k
is the smallest monomial of degree k, so a minimal lead x_n^k is the
element x_n^k of J, and x_n^k lies in J for some k exactly when x_n
vanishes on Y (Bayer and Stillman, "A criterion for detecting
m-regularity", Invent. Math. 87, 1987; ``SingularSchemeData.y_at_infinity``).
Then J is the unit ideal off x_n = 0, so a cut I is saturated by x_n in
place of g: I : x_n^infty agrees with I : J^infty off x_n = 0, and the
cut loses exactly its points on x_n = 0, which hold all of Y.  A chart
cut is saturated by x_n, so its chart is x_n = 1, where x_n is 1, and
``saturate`` returns its own basis, with no t.  The plane cut's plane is
drawn to meet x_n = 0 in a line through the third point, the line
s = infinity of the pencil of lines through that point, so g_2 is the
degree in s of Res(f1, f2): e^2, the Bezout number of (f1, f2) on the
plane, less that line's multiplicity as a root.  Neither reading depends
on g, and either can only come out low, when a residual point lies on
x_n = 0.  So g_2 is at most its proven bound B (``_bound``): e^2 - deg Y
when Y has codimension two, and e^2 above.  The resultant is interpolated
at B + 2 nodes, or e^2 + 1 if fewer, which reads every value up to
B + 1 exactly, so a reading above B is still refuted.

Degrees are computed modulo a prime as a probabilistic proxy for
characteristic zero.  ``TrialPolicy.schedule`` picks the (prime, seed)
pairs, at the primes that ``usable_primes`` keeps: p > 2 deg F, and F
keeps its support mod p.  At those primes every cut can only read low.
g_1 and g_i = 0 from the rank of the partials on are settled by the
jacobian scheme (``_settled``), and ``_certify`` holds every proven upper
bound on g_i at the trial's prime; each reading that meets its bound is
certified, and one above it refutes the vector (exit 3).  Later trials at
that prime draw only the cuts still open; a trial at another prime draws
every cut.  Since no reading is high, the candidate is the componentwise
max of all trials so far, and only a trial that reads it is accepted:
once nothing is open at its prime, or once an earlier trial read the
same whole vector and no open coordinate lies below the codimension of
Y, where only certification settles a reading.  Every trial is recorded
for audit.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .chow import ChowClass
from .errors import CsmhypError, RandomnessError
from .groebner import (
    IdealBasis,
    buchberger,
    dim_degree,
    saturate,
    standard_monomial_count,
)
from .poly import (
    Polynomial,
    PrimeField,
    _combine,
    _random_combination,
    _random_row,
    reduce_mod_p,
    variable,
)

DEFAULT_PRIMES = (32003, 65537, 2147483647)
DEFAULT_SEEDS = (101, 102)
MAX_TRIALS = 5  # trials per input; five different g-vectors abort the run
DIM_RETRIES = 4  # fresh cuts per g_i while the residual is positive-dimensional


@dataclass(frozen=True)
class TrialPolicy:
    """Randomness policy: the primes and seeds a report's trials run at.

    Each prime is checked for primality and range, and each seed for
    being an ``int``, when the policy is made; ``usable_primes`` decides
    which of the primes serve a given F.
    """

    primes: tuple = DEFAULT_PRIMES
    seeds: tuple = DEFAULT_SEEDS

    def __post_init__(self):
        if not self.primes or not self.seeds:
            raise ValueError("a trial policy needs at least one prime and one seed")
        for p in self.primes:
            if not isinstance(p, int) or p < 2:
                raise ValueError(f"policy prime {p!r} is not an integer >= 2")
            PrimeField(p)
        for s in self.seeds:
            if not isinstance(s, int) or isinstance(s, bool):
                raise ValueError(f"policy seed {s!r} is not an integer")

    def schedule(self, F: Polynomial) -> list:
        """The first ``MAX_TRIALS`` (prime, seed) pairs of F's trials.

        The primes are ``usable_primes(F, self.primes)``.  The pairs are
        (p, s + 100003 k) for k = 0, 1, ..., every seed at every usable
        prime for each k, without repeats; the k < ``MAX_TRIALS`` give at
        least ``MAX_TRIALS`` distinct pairs.
        """
        primes = usable_primes(F, self.primes)
        pairs = {}
        for k in range(MAX_TRIALS):
            for p in primes:
                for s in self.seeds:
                    pairs[p, s + 100003 * k] = None
                    if len(pairs) == MAX_TRIALS:
                        return list(pairs)


def usable_primes(F: Polynomial, primes) -> list:
    """The primes of ``primes``, each once and in first-seen order, at
    which a reading of F can only be low: p > 2 deg F, and p divides no
    coefficient of F, so that F keeps its support mod p.  Raises
    ``ValueError`` when there is none."""
    d = F.degree
    usable = [
        p for p in dict.fromkeys(primes)
        if p > 2 * d and all(c % p for c in F.terms.values())
    ]
    if not usable:
        raise ValueError(
            f"no usable prime in {list(primes)}: need p > 2 deg F = "
            f"{2 * d} and p dividing no coefficient of F"
        )
    return usable


@dataclass(frozen=True)
class TrialRecord:
    """One trial: its prime and seed, its g-vector, and whether it read
    the accepted vector.  ``g`` is a full vector: it carries the values
    that earlier trials at the same prime certified, which this trial took
    without drawing their cuts.  ``accepted`` is true exactly for the
    trials whose whole vector is the accepted one."""

    prime: int
    seed: int
    g: tuple
    accepted: bool

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "seed": self.seed,
            "g": list(self.g),
            "accepted": self.accepted,
        }


@dataclass(frozen=True)
class ProjectiveDegrees:
    """The vector (g_0, ..., g_n) of projective degrees of the gradient map.

    The range check 0 <= g_i <= e^i validates this public constructor;
    the pipeline's vectors have already passed ``_certify``."""

    n: int
    e: int
    g: tuple
    trials: tuple = dc_field(default_factory=tuple)

    def __post_init__(self):
        if len(self.g) != self.n + 1:
            raise ValueError("need n+1 projective degrees")
        if self.g[0] != 1:
            raise CsmhypError(f"projective degree g_0 = {self.g[0]}, expected 1")
        for i, gi in enumerate(self.g):
            if not 0 <= gi <= self.e**i:
                raise CsmhypError(
                    f"projective degree g_{i} = {gi} outside [0, {self.e**i}]"
                )


@dataclass(frozen=True)
class SingularSchemeData:
    """The jacobian scheme of a hypersurface over one working prime;
    ``partials`` holds the nonzero partial derivatives, and ``columns``
    their coefficients at each monomial that leads a nonzero combination
    of them: a combination vanishes iff it vanishes at those monomials,
    and there are as many columns as the rank of the partials mod p.

    ``y_at_infinity`` is true when Y lies in the hyperplane x_n = 0, as
    it always does when Y is empty; then every cut is saturated by x_n
    and loses exactly its points on x_n = 0 (see the module docstring)."""

    d: int
    n: int
    dim_y: object  # int or None for the empty scheme
    deg_y: int
    partials: tuple = ()
    columns: tuple = ()
    y_at_infinity: bool = False

    @property
    def is_smooth(self) -> bool:
        """Whether the jacobian scheme Y is empty."""
        return self.dim_y is None

    @property
    def codim(self) -> int:
        """The codimension c of Y in P^n, n + 1 when Y is empty."""
        return self.n + 1 if self.is_smooth else self.n - self.dim_y


def jacobian_scheme(F: Polynomial) -> SingularSchemeData:
    """The nonzero partials of F over GF(p), with the dimension and degree
    of their common projective zero locus from one Groebner basis; F is
    smooth when that locus is empty.  The basis's elements of degree
    d - 1 span the partials, so their leads are the monomials that lead
    the nonzero combinations of them.  Y lies in x_n = 0
    (``y_at_infinity``) exactly when a minimal lead is a power of x_n
    (see the module docstring)."""
    if F.is_zero:
        raise ValueError("hypersurface polynomial is zero")
    if F.field.kind != "prime":
        raise ValueError("jacobian scheme is computed over a prime field")
    d = F.degree
    p = F.field.p
    if p <= 2 * d:
        raise ValueError(f"prime {p} is too small for degree {d}: need p > 2d")
    n = F.nvars - 1
    partials = tuple(q for q in map(F.partial, range(F.nvars)) if not q.is_zero)
    if not partials:
        raise ValueError("all partial derivatives vanish: degenerate input")
    basis = buchberger(partials)
    dim_y, deg_y = dim_degree(basis)
    leads = basis.leading_terms
    return SingularSchemeData(
        d=d,
        n=n,
        dim_y=dim_y,
        deg_y=deg_y,
        partials=partials,
        columns=tuple(
            tuple(q.terms.get(m, 0) for q in partials)
            for m in leads
            if sum(m) == d - 1
        ),
        y_at_infinity=any(not any(m[:-1]) for m in leads),
    )


def _values(forms, points, p) -> list:
    """The values mod p of each form at each point, one list per form;
    not every form is zero.

    The work runs over all points at once, column by column: the powers
    of each coordinate up to the highest exponent that occurs, then the
    values of each monomial as the product of its nonzero power columns,
    and then one dot product per point and form.  Everything is exact
    until the dot products are reduced mod p.
    """
    monos = list({m for f in forms for m in f.terms})
    powers = []
    for xs, top in zip(zip(*points), map(max, zip(*monos))):
        pw = [None, xs]
        for _ in range(top - 1):
            pw.append(list(map(mul, pw[-1], xs)))
        powers.append(pw)
    cols = []
    for m in monos:
        col = None
        for pw, e in zip(powers, m):
            if e:
                col = pw[e] if col is None else list(map(mul, col, pw[e]))
        cols.append(col or [1] * len(points))
    rows = list(zip(*cols))
    return [
        [sum(map(mul, c, v)) % p for v in rows]
        for c in ([f.terms.get(m, 0) for m in monos] for f in forms)
    ]


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


@functools.lru_cache(maxsize=16)
def _lagrange(m, p) -> tuple:
    """The matrix that takes the values of a polynomial of degree at most
    m < p at s = 0..m to its coefficients, lowest first.  Column j holds
    the coefficients of prod_(i != j) (s - i) / (j - i): the product
    prod_(i <= m) (s - i), divided by s - j and by (-1)^(m-j) j! (m-j)!."""
    full = [1]
    for i in range(m + 1):  # full * (s - i)
        full = [(x - i * y) % p for x, y in zip([0] + full, full + [0])]
    cols = []
    for j in range(m + 1):
        w = pow((-1) ** (m - j) * factorial(j) * factorial(m - j), -1, p)
        q, acc = [], 0
        for x in reversed(full[1:]):  # synthetic division by s - j
            acc = (x + j * acc) % p
            q.append(acc * w % p)
        cols.append(q[::-1])
    return tuple(zip(*cols))


@functools.lru_cache(maxsize=16)
def _triangle(e, p) -> tuple:
    """``(nodes, newton)`` for restricting a ternary form of degree
    e < p to a plane: the nodes (s, u) of the triangle s + u <= e, which
    fix a polynomial P(s, u) of degree at most e, and the matrix that
    takes P's values at the nodes to the d_im of
    P = sum_(i + m <= e) d_im C(s, i) u^m, row (m, i) for m = 0..e and
    then i = 0..e-m.

    Newton's forward differences in s give P as the sum over i of
    C(s, i) Q_i(u), with Q_i(u) = sum_(k <= i) (-1)^(i-k) C(i, k) P(k, u)
    of degree at most e - i.  So Q_i is fixed by its values at
    u = 0..e-i, which lie on the triangle, and d_im is its u^m
    coefficient, by ``_lagrange(e - i, p)``.
    """
    nodes = tuple((k, l) for k in range(e + 1) for l in range(e + 1 - k))
    lag = [_lagrange(e - i, p) for i in range(e + 1)]
    newton = tuple(
        tuple(
            (-1) ** (i + k) * comb(i, k) * lag[i][m][l] % p if l <= e - i else 0
            for k, l in nodes
        )
        for m in range(e + 1)
        for i in range(e + 1 - m)
    )
    return nodes, newton


def _interpolate(ys, p) -> list:
    """The coefficients, lowest first and trimmed, of the polynomial of
    degree below len(ys) <= p with the values ys at s = 0, 1, ...."""
    return _trim([sum(map(mul, row, ys)) % p for row in _lagrange(len(ys) - 1, p)])


def _divmod(a, b, p):
    """Quotient and remainder of trimmed coefficient lists, b nonzero."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + db] * inv % p
        if c:
            a[k : k + db] = [(x - c * y) % p for x, y in zip(a[k : k + db], b)]
    return q, _trim(a[:db])


def _strip(f, g, p):
    """f, a nonzero coefficient list, without every root it shares with
    g, at full multiplicity.  A root of f / gcd(f, g) that g shares is a
    root of that gcd, so each further gcd is taken with the last one."""
    while True:
        h, b = g, f
        while b:  # Euclid: h = gcd(f, g)
            h, b = b, _divmod(h, b, p)[1]
        if len(h) == 1:
            return f
        f, g = _divmod(f, h, p)[0], h


def _inverses(vs, p) -> list:
    """The inverses mod p of vs, with 1 for each 0, by one ``pow``: the
    inverse of the product of the first k + 1 values, times the product
    of the first k, is the inverse of value k + 1 (Montgomery, "Speeding
    the Pollard and elliptic curve methods of factorization", Math.
    Comp. 48, 1987)."""
    ws = [v or 1 for v in vs]
    acc = 1
    pre = [acc := acc * w % p for w in ws]  # pre[k] = ws[0] * ... * ws[k]
    inv = pow(acc, -1, p)  # of pre[k] at each k below, from the top down
    out = [0] * len(ws)
    for k in range(len(ws) - 1, 0, -1):
        out[k] = inv * pre[k - 1] % p
        inv = inv * ws[k] % p
    out[0] = inv
    return out


def _resultants(a, b, p) -> list:
    """Res(a, b) at every node, for a and b given as coefficient columns,
    lowest degree first, each holding the coefficient's value at every
    node, with no zero in the top columns.  Euclid runs on all nodes at
    once: Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
    for r = a mod b, and Res(a, c) = c^deg a for a constant c.  A node
    where a remainder loses more than one degree, unlike the others, is
    computed again on its own."""
    res = [1] * len(a[0])
    odd = set()
    x, y = a, b
    while len(y) > 1:
        m, n = len(x) - 1, len(y) - 1
        lc = y[-1]
        odd.update(i for i, v in enumerate(lc) if not v)
        inv = _inverses(lc, p)
        r = list(x)
        for k in range(m - n, -1, -1):
            c = [u * v % p for u, v in zip(r.pop(), inv)]
            for j in range(n):
                r[k + j] = [(u - q * v) % p for u, q, v in zip(r[k + j], c, y[j])]
        while r and not any(r[-1]):
            r.pop()
        if not r:
            res = [0] * len(res)
            break
        sign = (-1) ** (m & n & 1)
        k = m - len(r) + 1  # deg x - deg r: 1 at the first step, then 2
        if k == 2:
            lc = [v * v for v in lc]
        elif k > 2:
            lc = [pow(v, k, p) for v in lc]
        res = [sign * t * v % p for t, v in zip(res, lc)]
        x, y = y, r
    else:
        res = [t * pow(v, len(x) - 1, p) % p for t, v in zip(res, y[0])]
    for i in odd:
        res[i] = _resultants([[u[i]] for u in a], [[u[i]] for u in b], p)[0]
    return res


def _echelon(rows, p):
    """An echelon form mod p of ``rows``, given with entries in [0, p),
    reached without division: its nonzero rows, which span what ``rows``
    span, each 0 at every other row's pivot, and their pivot columns."""
    out, pivots = [], []
    for r in rows:
        r = _reduced(r, out, pivots, p)
        for k, x in enumerate(r):
            if x:
                out = [
                    [(x * a - q[k] * b) % p for a, b in zip(q, r)] if q[k] else q
                    for q in out
                ]
                out.append(r)
                pivots.append(k)
                break
    return out, pivots


def _reduced(row, echelon, pivots, p) -> list:
    """A unit times ``row`` less its multiples of the rows of ``_echelon``,
    so that it is 0 at their pivots."""
    for q, k in zip(echelon, pivots):
        c = row[k]
        if c:
            row = [(q[k] * a - c * b) % p for a, b in zip(row, q)]
    return row


def _on_plane(forms, a, b, c, p, nodes) -> list:
    """For each form f of degree e, e^2 < p, the coefficients in u of
    f(a + s*b + u*c), lowest first, as columns of their values mod p at
    the nodes s = 0..nodes - 1.

    f(a + s*b + u*c) has degree e in s and u, so it is fixed by its
    values at the (e+1)(e+2)/2 nodes of the triangle s + u <= e, and
    ``_triangle`` takes them to its u^m coefficients in the binomial
    basis C(s, i), of degree e - m: their forward differences at s = 0.
    Adding each difference to the one below carries them from s to
    s + 1, exactly and without a product.
    """
    e = forms[0].degree
    tri, newton = _triangle(e, p)
    plane = [[x + s * y + u * z for x, y, z in zip(a, b, c)] for s, u in tri]
    out = []
    for v in _values(forms, plane, p):
        d = [sum(map(mul, row, v)) % p for row in newton]
        cols, at = [], 0
        for m in range(e + 1):
            col = [d[at + e - m]] * nodes
            for x in reversed(d[at : at + e - m]):  # the next lower differences
                col = list(accumulate(col[:-1], initial=x))
            cols.append([x % p for x in col])
            at += e + 1 - m
        out.append(cols)
    return out


def _plane_degree(f1, f2, g, a, b, c, p, bound=None):
    """``g_2`` of the cut (f1, f2) on the plane through a, b and c,
    saturated by g, or by x_n when g is None, which the caller passes
    when Y lies in x_n = 0, together with ``bound``, the proven upper
    bound on g_2 at p (``_bound``; e^2 when None); ``None`` when the
    points are dependent, c lies on one of the curves, a resultant
    vanishes identically, or, for x_n, b lies on x_n = 0.

    The lines through c are the lines s = const of the chart
    a + s*b + u*c.  R12(s) = Res_u(f1, f2) vanishes on each line through
    a point where f1 and f2 meet, with their intersection numbers there
    as its multiplicity (Fulton, Algebraic Curves), so (f1, f2) : g^infty
    is R12 stripped of every root it shares with R1G(s) = Res_u(f1, g).
    R12 has degree at most e^2 in s and is interpolated from its values
    at s = 0..e^2, which needs e^2 < p; so is R1G.  The line through c
    and b is a root of R12 of multiplicity e^2 - deg R12, shared with
    R1G exactly when R1G, too, is below degree e^2.  A line through c
    that holds a residual point and a point of f1 and g is stripped as
    well, so an unlucky c, like an unlucky g, can only lower g_2.  The
    u^e coefficient of f(a + s*b + u*c) is f(c), so ``_on_plane`` tells
    whether c lies on a curve.

    For x_n, a and c are moved onto x_n = 0 by zeroing their last
    coordinates once they are drawn, so the draws do not change, and the
    forms are restricted to b + s*a + u*c.  The plane then meets x_n = 0
    in the line through c and a, which is s = infinity, or lies in it
    when b does too.  By Bezout, f1 and f2 meet on the plane in e^2
    points, and the cut loses exactly its points on x_n = 0 (see the
    module docstring), which R(s) = Res_u(f1, f2) counts as its order at
    s = infinity: R is s^(e^2) R12(1/s), the coefficient reversal of the
    R12 of a + s*b + u*c, and g_2 is deg R; no R1G is needed.  The
    reading can only be low, so it is at most the bound B, and R is
    interpolated from its values at s = 0..min(B + 1, e^2).  That is
    exact for every reading up to B + 1, so a reading above B still
    reaches ``_certify``, which refutes it.
    """
    e = f1.degree
    forms, top = (f1, f2, g), e * e
    if g is None:
        if not b[-1]:
            return None
        a, b, c = b, [*a[:-1], 0], [*c[:-1], 0]
        forms, top = (f1, f2), min(top, e * e if bound is None else bound + 1)
    if len(_echelon((a, b, c), p)[0]) < 3:
        return None
    f1_s, f2_s, *g_s = _on_plane(forms, a, b, c, p, top + 1)
    if not all(f_s[-1][0] for f_s in (f1_s, f2_s, *g_s)):  # f1(c), f2(c), g(c)
        return None
    r12 = _interpolate(_resultants(f1_s, f2_s, p), p)
    if not r12:
        return None
    if g is None:
        return len(r12) - 1
    r1g = _interpolate(_resultants(f1_s, g_s[0], p), p)
    if not r1g:
        return None
    at_b = e * e + 1 - len(r12)
    return len(_strip(r12, r1g, p)) - 1 + (at_b if len(r1g) == e * e + 1 else 0)


def _combination(partials, row, p) -> Polynomial:
    """sum_j row[j] * partials[j] mod p, which may be zero."""
    return partials[0]._wrap(_combine(partials, row, p))


def _reduced_cut(partials, rows, g_row, p):
    """The forms of a chart cut and its saturating g, from their rows of
    coefficients of the partials: the nonzero forms of ``_echelon(rows)``,
    and g less its multiples of them, which may be 0, or None when
    ``g_row`` is None."""
    echelon, pivots = _echelon(rows, p)
    forms = [f for f in (_combination(partials, r, p) for r in echelon) if not f.is_zero]
    if g_row is None:
        return forms, None
    return forms, _combination(partials, _reduced(g_row, echelon, pivots, p), p)


@functools.cache
def _variables(field, nvars) -> tuple:
    """The variables x_0..x_(nvars - 1) over field, built once per ring."""
    return tuple(variable(nvars, k, field) for k in range(nvars))


def _chart_degree(forms, g, n: int):
    """``g_i`` of the cut by ``forms`` in P^n, saturated by the form g:
    the colength of the saturation in the chart x_k = 1, where the forms
    and g are dehomogenized.  x_k is the last variable that divides every
    term of g, and x_n when none does or g is 0.  ``None`` when the
    residual is positive-dimensional off x_k = 0; 0 when it is empty.

    A zero-dimensional scheme that misses x_k = 0 has the colength of
    its ideal in that chart as its degree (Cox, Little and O'Shea,
    *Ideals, Varieties, and Algorithms*, ch. 8), and saturating by g
    commutes with setting x_k = 1, so every residual point off x_k = 0
    is counted with its length.  When x_k divides g, every point of
    x_k = 0 lies in V(g), which the saturation removes, so nothing is
    lost and the count is that of the projective saturation.  Otherwise,
    in the chart x_n = 1, what lies on x_n = 0 is lost: a residual point,
    or a positive-dimensional residual inside that hyperplane, which then
    gives a finite count where the projective cut is drawn again.  Either
    way the count is that of the isolated points that are left, so, like
    an unlucky g, it can only come out low; for random forms and
    hyperplanes that happens with probability about 1/p.

    When Y lies in x_n = 0 the caller passes g = x_n, and the cut loses
    exactly its points on x_n = 0 (see the module docstring).  x_n
    dehomogenizes to 1, a unit, so ``saturate`` returns the cut's own
    basis, computed with no t; so does a g that is a power of its
    chart's variable.
    """
    k = max((k for k in range(n + 1) if all(m[k] for m in g.terms)), default=n)
    cut = IdealBasis(tuple(f.dehomogenize(k) for f in forms))
    residual = saturate(cut, IdealBasis((g.dehomogenize(k),)))
    return standard_monomial_count(residual)


def _degrees_one_trial(scheme: SingularSchemeData, rng, certified: dict) -> tuple:
    """One g-vector at one (prime, seed).  ``certified`` maps each i whose
    g_i is already settled at this prime to its value: g_1 and the
    g_i = 0 from the rank of the partials on (``_settled``), and each g_i
    an earlier trial certified (``_certify``).  The vector takes that
    value, and no row, point or hyperplane is drawn for it; every other
    cut is drawn, so the first cut a trial draws is g_2's.

    Each cut is saturated by one random combination g of the partials,
    instead of by the whole jacobian ideal J.  The two saturations agree
    unless g lies in an associated prime of the cut that misses J, such
    as a point of the zero-dimensional residual; an unlucky draw can only
    lower some g_i, and any trial that reads it higher overrules it.  A
    unit residual is the empty scheme, so its g_i is 0.  g_0 is 1, the
    degree of P^n, and is not computed.

    g_2, for 2 < n, is read on the plane through three random points, by
    resultants; it gives the elimination's answer on that plane, and a
    draw whose points are dependent or whose forms meet it degenerately
    is drawn again.  The plane cut takes e^2 + 1 interpolation nodes, so
    it needs e^2 < p; saturated by x_n it takes at most B + 2, for the
    bound B on g_2 (``_bound``).  It is left to the elimination when Y
    has codimension one, since f1 and g then share a curve on every
    plane, and for the top cut i = n = 2, whose plane is all of P^2.

    Every other cut is counted in an affine chart x_k = 1
    (``_chart_degree``), where x_k is the last variable that divides g,
    and x_n when none does: its forms, its hyperplanes and g lose x_k,
    and one elimination by ``saturate`` runs in n variables plus t.  When
    x_k divides g the count is that of the projective saturation; in the
    chart x_n = 1 of a g that no variable divides, a residual point on
    x_n = 0 is not counted, so that g_i, too, can only come out low, with
    probability about 1/p.  The cut is built from
    row-reduced combinations (``_reduced_cut``): its i combinations and g
    are drawn as rows of coefficients of the partials, the i rows are
    brought to an echelon form in which each pivot column is 0 but in its
    own row, and g is reduced modulo them.  The echelon rows span the same
    forms, so the cut ideal I is unchanged, and each uses at most
    n + 2 - i partials.  The reduced g differs from g by an element of I,
    so I : g^infty is exactly that of the dense draws; for the top cut,
    with n + 1 independent partials, g is one partial, and a variable
    that divides it, as x0*x1*x2 is divided for Roman's Steiner surface,
    gives its chart.  A
    g that reduces to 0 lies in I, which below the rank r of the partials
    (see ``_settled``) takes an unlucky draw, and saturating by 0, like
    saturating by g, gives the unit ideal, whose g_i is 0.

    When the scheme's ``y_at_infinity`` holds, Y lies in x_n = 0, and
    every cut is saturated by x_n instead of g and loses exactly its
    points on x_n = 0 (see the module docstring): a chart cut is passed
    x_n, with no g reduced or combined, and the plane cut g None and the
    bound on g_2, which sets its number of nodes.  g's row is still
    drawn, so the draws of the other cuts stay as they were.
    """
    n = scheme.n
    partials = scheme.partials
    columns = scheme.columns
    field = partials[0].field
    p = field.p
    plane = 2 < n and (scheme.d - 1) ** 2 < p and scheme.codim != 1
    at_infinity = scheme.y_at_infinity
    # The partials are nonzero forms of degree d - 1 and the variables
    # forms of degree 1, so the draws skip random_linear_combination's
    # checks; they take the same values from rng.  The partials are drawn
    # as rows of coefficients, which a plane cut combines at once.
    base_row = _random_row(columns, p, rng)
    g_row = None if at_infinity else base_row
    g = [1]
    for i in range(1, n + 1):
        if i in certified:
            g.append(certified[i])
            continue
        for _ in range(DIM_RETRIES):
            rows = [_random_row(columns, p, rng) for _ in range(i)]
            if i == 2 and plane:
                f1, f2 = (_combination(partials, r, p) for r in rows)
                base = None if at_infinity else _combination(partials, base_row, p)
                points = [[rng.randrange(p) for _ in range(n + 1)] for _ in range(3)]
                gi = _plane_degree(f1, f2, base, *points, p, _bound(scheme, 2, certified))
            else:
                xs = _variables(field, n + 1)
                planes = [_random_combination(xs, p, rng) for _ in range(n - i)]
                forms, rest = _reduced_cut(partials, rows, g_row, p)
                gi = _chart_degree(forms + planes, xs[n] if at_infinity else rest, n)
            if gi is not None:
                g.append(gi)
                break
        else:
            raise RandomnessError(
                f"residual scheme stayed positive-dimensional for g_{i} "
                f"after {DIM_RETRIES} retries"
            )
    return tuple(g)


def _settled(scheme: SingularSchemeData) -> dict:
    """The g_i that the jacobian scheme fixes at its prime, i -> g_i, so
    that no trial draws their cuts:

    - g_1 = e - deg_y when c = ``scheme.codim`` is 1, and e otherwise:
      the h^1 coefficient of s(Y, P^n) is e - g_1, which ``_certify``
      proves to be deg_y at c = 1 and 0 above;
    - g_i = 0 for every i >= r, where r = ``len(scheme.columns)`` is the
      rank mod p of the partials' span: i generic rows then span all the
      partials, so the cut ideal contains J, its saturation by g is the
      unit ideal, and g_i = 0.  When r <= 1 this takes precedence over
      the rule for g_1."""
    e = scheme.d - 1
    settled = {1: e - scheme.deg_y if scheme.codim == 1 else e}
    settled.update(dict.fromkeys(range(len(scheme.columns), scheme.n + 1), 0))
    return settled


def _bound(scheme: SingularSchemeData, i: int, exact: dict):
    """The proven upper bound on g_i at the scheme's prime, or None when
    there is none yet; ``exact`` maps each i whose g_i is certified at
    that prime to its value.  Each g_i has at most one such bound, with
    e = deg F - 1 and c = ``scheme.codim``:

    - e^i for i < c: s(Y, P^n) vanishes below codimension c, which is
      g_i = e^i there;
    - e^c - deg_y at i = c: the h^c coefficient of s(Y, P^n) is
      e^c - g_c, the sum of the Samuel multiplicities of Y along its top
      components, and each is at least their length (Fulton,
      *Intersection Theory*, Ex. 4.3.4).  At c = 1 the bound e - deg_y
      is g_1 itself: at the generic point of a component of codimension
      one the local ring of P^n is a discrete valuation ring, where J is
      principal and its Samuel multiplicity equals its length, so
      ``_settled`` takes g_1 from it with no draw;
    - g_(i-1)^2 // g_(i-2) for i > c, once g_(i-2) > 0 and g_(i-1) are
      certified: g_i is the intersection number
      (pr_1^* h)^(n-i) (pr_2^* h)^i of two nef classes on the closure of
      the graph of the gradient map, so g_i g_(i-2) <= g_(i-1)^2
      (Khovanskii-Teissier; Lazarsfeld, *Positivity I*, Sec. 1.6; in
      Huh's terms, JAMS 25 (2012), the g_i are mixed multiplicities).
    """
    e, c = scheme.d - 1, scheme.codim
    if i < c:
        return e**i
    if i == c:
        return e**c - scheme.deg_y
    if exact.get(i - 2) and i - 1 in exact:
        return exact[i - 1] ** 2 // exact[i - 2]
    return None


def _certify(scheme: SingularSchemeData, g: tuple, exact: dict) -> None:
    """Add to ``exact``, the map i -> g_i certified at the scheme's prime,
    every g_i that trial vector g proves there; raise ``CsmhypError`` when
    g breaks a proven bound (``_bound``).

    The pass runs upward, so a g_i certified here bounds g_(i+1) in the
    same pass.  A cut can only read low, so each reading has one of three
    outcomes: it meets its bound and is certified, it is above it and the
    vector is refuted at once (exit 3: the prime or the scheme is wrong),
    or it is below it and stays open.  Below c, where e^i is the proven
    value, an open reading is only ever settled by certification:
    ``projective_degrees`` accepts no vector by repetition while one is
    open there.
    """
    for i, gi in enumerate(g):
        bound = _bound(scheme, i, exact)
        if bound is None:
            continue
        if gi > bound:
            raise CsmhypError(
                f"projective degree g_{i} = {gi} is above its bound {bound} "
                f"at prime {scheme.partials[0].field.p}"
            )
        if gi == bound:
            exact[i] = gi


def projective_degrees(F_rational: Polynomial, policy: TrialPolicy = TrialPolicy()):
    """Multi-trial projective degrees of the gradient map of F.

    Runs one trial at each (prime, seed) of ``policy.schedule(F)``.  A
    prime's certified map starts with ``_settled`` when its scheme is
    built, and after each trial ``_certify`` adds every g_i that meets its
    bound or refutes the vector.  Every later trial at the same prime
    takes the certified values without drawing their cuts; a trial at
    another prime draws every cut again, so a bound met at an unlucky
    prime does not carry over.  The coordinates not certified at the
    trial's prime are open.  Only a trial that reads the componentwise
    max of the trials so far is accepted: at once when nothing is left
    open, and otherwise when an earlier trial read the same whole vector
    and no open coordinate lies below the codimension of Y.  Every trial
    is recorded; when ``MAX_TRIALS`` pass without acceptance, the run
    aborts with the log.

    Returns ``(ProjectiveDegrees, SingularSchemeData)`` with the scheme of
    the accepting trial's prime.
    """
    if F_rational.field.kind != "rationals":
        raise ValueError("pipeline input must be a polynomial over Q")
    trials = []
    schemes = {}
    certified = {}  # prime -> {i: g_i certified at that prime}
    top = (0,) * F_rational.nvars  # the componentwise max of the trials
    for prime, seed in policy.schedule(F_rational):
        if prime not in schemes:
            schemes[prime] = jacobian_scheme(reduce_mod_p(F_rational, prime))
            certified[prime] = _settled(schemes[prime])
        scheme, exact = schemes[prime], certified[prime]
        rng = random.Random(f"csmhyp:{prime}:{seed}")
        g = _degrees_one_trial(scheme, rng, exact)
        _certify(scheme, g, exact)
        top = tuple(map(max, top, g))
        still_open = [i for i in range(len(g)) if i not in exact]
        trials.append((prime, seed, g))
        if g == top and (
            not still_open
            or (
                still_open[0] >= scheme.codim
                and any(gv == g for _, _, gv in trials[:-1])
            )
        ):
            pd = ProjectiveDegrees(
                n=scheme.n,
                e=F_rational.degree - 1,
                g=g,
                trials=tuple(TrialRecord(p, s, gv, gv == g) for p, s, gv in trials),
            )
            return pd, scheme
    raise RandomnessError(
        f"no projective-degree vector accepted after {len(trials)} trials",
        trials=[TrialRecord(p, s, gv, False).to_json() for p, s, gv in trials],
    )


def segre_from_degrees(pd: ProjectiveDegrees) -> ChowClass:
    """Assemble the pushforward of s(Y, P^n) from the projective degrees:
    1 - sum_j g_j h^j / (1 + e h)^(j+1), whose h^k coefficient is
    [k = 0] - sum_(j <= k) C(k, j) (-e)^(k-j) g_j.  The codimension-0
    part 1 - g_0 is 0, since ``ProjectiveDegrees`` refuses g_0 != 1."""
    e, g = pd.e, pd.g
    return ChowClass(
        pd.n,
        [
            int(k == 0) - sum(comb(k, j) * (-e) ** (k - j) * g[j] for j in range(k + 1))
            for k in range(pd.n + 1)
        ],
    )


def segre_singular_scheme(
    F_rational: Polynomial, policy: TrialPolicy = TrialPolicy()
):
    """Full Segre pipeline: jacobian scheme, projective degrees, class.

    Returns ``(segre, ProjectiveDegrees, SingularSchemeData)``.  The class
    vanishes below the codimension c of Y, identically when Y is empty,
    and its h^c coefficient is at least deg Y: ``_certify`` proves those
    bounds on the degrees it is built from."""
    pd, scheme = projective_degrees(F_rational, policy)
    return segre_from_degrees(pd), pd, scheme
