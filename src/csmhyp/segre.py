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

g_0 is the degree of P^n, so it is 1 and is not computed.  g_1 needs no
Groebner basis: on the line through two random points the cut is one
binary form, and g_1 is its degree once every root it shares with g is
removed, by univariate gcds mod p.  Only a cut with i >= 2 goes through
an elimination, straight from its generators.

Degrees are computed modulo a prime as a probabilistic proxy for
characteristic zero and accepted only under the multi-prime, multi-seed
agreement policy; every trial is recorded for audit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from math import comb

from .chow import ChowClass
from .errors import CsmhypError, RandomnessError
from .groebner import IdealBasis, buchberger, dim_degree, saturate
from .poly import Polynomial, _random_combination, reduce_mod_p, variable

DEFAULT_PRIMES = (32003, 65537, 2147483647)
DEFAULT_SEEDS = (101, 102)
MAX_TRIALS = 8  # trials per input before giving up
MAX_DISAGREEMENTS = 4  # disagreeing trials that abort the run
DIM_RETRIES = 4  # fresh cuts per g_i while the residual is positive-dimensional


@dataclass(frozen=True)
class TrialPolicy:
    """Randomness policy: which primes and seeds to try."""

    primes: tuple = DEFAULT_PRIMES[:2]
    seeds: tuple = DEFAULT_SEEDS

    def __post_init__(self):
        # Primality is checked by PrimeField, where each prime is used.
        if not self.primes or not self.seeds:
            raise ValueError("a trial policy needs at least one prime and one seed")
        for p in self.primes:
            if not isinstance(p, int) or p < 2:
                raise ValueError(f"policy prime {p!r} is not an integer >= 2")

    def combos(self):
        """Deterministic trial order: all seeds at the first prime, then
        escalation to further primes, then derived fresh seeds."""
        for p in self.primes:
            for s in self.seeds:
                yield (p, s)
        k = 1
        while True:
            for p in self.primes:
                for s in self.seeds:
                    yield (p, s + 100003 * k)
            k += 1


@dataclass(frozen=True)
class TrialRecord:
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
    """The vector (g_0, ..., g_n) of projective degrees of the gradient map."""

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
    ``partials`` holds the nonzero partial derivatives."""

    d: int
    n: int
    is_smooth: bool
    dim_y: object  # int or None for the empty scheme
    deg_y: int
    partials: tuple = ()


def jacobian_scheme(F: Polynomial) -> SingularSchemeData:
    """The nonzero partials of F over GF(p), with the dimension and degree
    of their common projective zero locus from one Groebner basis; F is
    smooth when that locus is empty."""
    if F.is_zero:
        raise ValueError("hypersurface polynomial is zero")
    if F.field.kind != "prime":
        raise ValueError("jacobian scheme is computed over a prime field")
    d = F.degree
    p = F.field.p
    if d % p == 0:
        raise ValueError(
            f"prime {p} divides deg F = {d}; the partials would not cut the "
            "singular scheme (Euler relation degenerates); pick another prime"
        )
    if p <= 2 * d:
        raise ValueError(f"prime {p} is too small for degree {d}: need p > 2d")
    n = F.nvars - 1
    partials = tuple(q for q in map(F.partial, range(F.nvars)) if not q.is_zero)
    if not partials:
        raise ValueError("all partial derivatives vanish: degenerate input")
    dim_y, deg_y = dim_degree(buchberger(partials))
    return SingularSchemeData(
        d=d,
        n=n,
        is_smooth=dim_y is None,
        dim_y=dim_y,
        deg_y=deg_y,
        partials=partials,
    )


def _evaluate(f: Polynomial, point, p) -> int:
    """The value of f at a point mod p."""
    acc = 0
    for m, c in f.terms.items():
        for x, k in zip(point, m):
            if k:
                c = c * pow(x, k, p)
        acc += c
    return acc % p


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _on_line(f: Polynomial, a, b, e, p) -> list:
    """The coefficients, lowest first and trimmed, of f(a + s*b) as a
    polynomial of degree at most e in s: its values at s = 0..e,
    interpolated by Newton's divided differences."""
    ys = [_evaluate(f, [x + s * y for x, y in zip(a, b)], p) for s in range(e + 1)]
    for j in range(1, e + 1):
        inv = pow(j, p - 2, p)
        for k in range(e, j - 1, -1):
            ys[k] = (ys[k] - ys[k - 1]) * inv % p
    out = [ys[e]]
    for k in range(e - 1, -1, -1):  # Horner in the basis prod (s - node)
        out = [0] + out
        for j in range(len(out) - 1):
            out[j] = (out[j] - k * out[j + 1]) % p
        out[0] = (out[0] + ys[k]) % p
    return _trim(out)


def _divmod(a, b, p):
    """Quotient and remainder of trimmed coefficient lists, b nonzero."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + db] * inv % p
        if c:
            for j, v in enumerate(b):
                a[k + j] = (a[k + j] - c * v) % p
    return q, _trim(a[:db])


def _gcd(a, b, p):
    """A gcd of coefficient lists, by Euclid's algorithm."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return a


def _line_degree(f: Polynomial, g: Polynomial, a, b, p):
    """``g_1`` of the cut (f) on the line a + s*b, saturated by g; ``None``
    when a and b are dependent, or f vanishes on the line and g does not.

    On the line the cut is one binary form F of degree e, and
    (F) : g^infty is F stripped of every factor it shares with g|L, with
    its full multiplicity; its degree is what is left.  The point b is a
    root of F|L of multiplicity e - deg F|L, shared with g exactly when
    deg g|L < e as well.
    """
    k = next((k for k, x in enumerate(a) if x), None)
    if k is None or all(x * b[k] % p == y * a[k] % p for x, y in zip(a, b)):
        return None
    e = f.degree
    g_l = _on_line(g, a, b, e, p)
    if not g_l:
        return 0
    f_l = _on_line(f, a, b, e, p)
    if not f_l:
        return None
    at_b = e + 1 - len(f_l)
    while True:
        h = _gcd(f_l, g_l, p)
        if len(h) == 1:
            break
        f_l = _divmod(f_l, h, p)[0]
    return len(f_l) - 1 + (at_b if len(g_l) == e + 1 else 0)


def _degrees_one_trial(scheme: SingularSchemeData, rng) -> tuple:
    """One g-vector at one (prime, seed).

    Each cut is saturated by one random combination g of the partials,
    instead of by the whole jacobian ideal J.  The two saturations agree
    unless g lies in an associated prime of the cut that misses J, such
    as a point of the zero-dimensional residual; an unlucky draw can only
    lower some g_i, and the agreement policy records it as a
    disagreement.  A unit residual is the empty scheme, so its g_i is 0.

    g_0 is 1, the degree of P^n, and is not computed.  g_1 is read on the
    line through two random points, by univariate gcds mod p, with the
    same answer as the elimination; a draw whose points are dependent or
    whose form vanishes on the line is drawn again.  Every cut with
    i >= 2 goes straight from its generators into one elimination by
    ``saturate``.
    """
    n = scheme.n
    partials = scheme.partials
    p = partials[0].field.p
    xs = [variable(n + 1, k, partials[0].field) for k in range(n + 1)]
    # The partials are nonzero forms of degree d - 1 and the variables
    # forms of degree 1, so the draws skip random_linear_combination's
    # checks; they take the same values from rng.
    base_locus = IdealBasis((_random_combination(partials, p, rng),))
    g = [1]
    for i in range(1, n + 1):
        for _ in range(DIM_RETRIES):
            if i == 1:
                f = _random_combination(partials, p, rng)
                a, b = ([rng.randrange(p) for _ in range(n + 1)] for _ in range(2))
                gi = _line_degree(f, base_locus.gens[0], a, b, p)
            else:
                forms = [_random_combination(partials, p, rng) for _ in range(i)]
                planes = [_random_combination(xs, p, rng) for _ in range(n - i)]
                residual = saturate(IdealBasis(tuple(forms + planes)), base_locus)
                dim, gi = dim_degree(residual)
                if dim:  # positive-dimensional; (None, 0) for the empty scheme
                    gi = None
            if gi is not None:
                g.append(gi)
                break
        else:
            raise RandomnessError(
                f"residual scheme stayed positive-dimensional for g_{i} "
                f"after {DIM_RETRIES} retries"
            )
    return tuple(g)


def projective_degrees(F_rational: Polynomial, policy: TrialPolicy = TrialPolicy()):
    """Multi-trial projective degrees of the gradient map of F.

    Runs the per-trial computation over the policy's (prime, seed) grid
    until one g-vector is confirmed by two independent trials (or is the
    single trial of a one-combo policy).  Disagreeing trials are recorded,
    never silently dropped; too many disagreements abort with the log.

    Returns ``(ProjectiveDegrees, SingularSchemeData)`` with the scheme
    data taken from the first accepted trial's prime.
    """
    if F_rational.field.kind != "rationals":
        raise ValueError("pipeline input must be a polynomial over Q")
    d = F_rational.degree
    if all(d % p == 0 for p in policy.primes):
        raise ValueError(
            f"every policy prime divides deg F = {d}; no usable prime"
        )
    combos = []
    seen = set()
    for p, s in policy.combos():
        if len(combos) >= MAX_TRIALS:
            break
        if d % p == 0 or (p, s) in seen:
            continue
        seen.add((p, s))
        combos.append((p, s))
    single = len(combos) == 1

    trials = []
    results = []
    schemes = {}
    for prime, seed in combos:
        if prime not in schemes:
            schemes[prime] = jacobian_scheme(reduce_mod_p(F_rational, prime))
        rng = random.Random(f"csmhyp:{prime}:{seed}")
        g = _degrees_one_trial(schemes[prime], rng)
        trials.append((prime, seed, g))
        results.append(g)
        counts = {}
        for gv in results:
            counts[gv] = counts.get(gv, 0) + 1
        winner, wcount = max(counts.items(), key=lambda kv: kv[1])
        disagreements = len(results) - wcount
        if disagreements >= MAX_DISAGREEMENTS:
            raise RandomnessError(
                "projective-degree trials disagree persistently",
                trials=[
                    TrialRecord(p, s, gv, False).to_json() for p, s, gv in trials
                ],
            )
        if wcount >= 2 or (single and wcount == 1):
            records = tuple(
                TrialRecord(p, s, gv, gv == winner) for p, s, gv in trials
            )
            first_prime = next(p for p, s, gv in trials if gv == winner)
            pd = ProjectiveDegrees(
                n=schemes[first_prime].n,
                e=d - 1,
                g=winner,
                trials=records,
            )
            return pd, schemes[first_prime]
    raise RandomnessError(
        "no projective-degree vector was confirmed twice",
        trials=[TrialRecord(p, s, gv, False).to_json() for p, s, gv in trials],
    )


def segre_from_degrees(pd: ProjectiveDegrees) -> ChowClass:
    """Assemble the pushforward of s(Y, P^n) from the projective degrees:
    1 - sum_j g_j h^j / (1 + e h)^(j+1), whose h^k coefficient is
    [k = 0] - sum_(j <= k) C(k, j) (-e)^(k-j) g_j."""
    e, g = pd.e, pd.g
    acc = ChowClass(
        pd.n,
        [
            int(k == 0) - sum(comb(k, j) * (-e) ** (k - j) * g[j] for j in range(k + 1))
            for k in range(pd.n + 1)
        ],
    )
    if acc.coeffs[0] != 0:
        raise CsmhypError("segre class has a nonzero codimension-0 part: bad degrees")
    return acc


def segre_singular_scheme(
    F_rational: Polynomial, policy: TrialPolicy = TrialPolicy()
):
    """Full Segre pipeline: jacobian scheme, projective degrees, class.

    Returns ``(segre, ProjectiveDegrees, SingularSchemeData)``.  Checks
    the support constraint: the class vanishes in codimensions below the
    codimension of Y (and vanishes identically iff Y is empty), and its
    leading coefficient is at least the degree of Y.
    """
    pd, scheme = projective_degrees(F_rational, policy)
    s = segre_from_degrees(pd)
    if scheme.is_smooth:
        if any(c != 0 for c in s.coeffs):
            raise CsmhypError("smooth hypersurface produced a nonzero Segre class")
    else:
        codim = scheme.n - scheme.dim_y
        if any(s.coeffs[k] != 0 for k in range(codim)):
            raise CsmhypError(
                "Segre class has components below the codimension of the "
                "singular scheme: inconsistent projective degrees"
            )
        if s.coeffs[codim] < scheme.deg_y:
            # The leading coefficient of s(Y) sums the Samuel multiplicities
            # of Y along its top-dimensional components (Fulton, Intersection
            # Theory, Ex. 4.3.4); deg_y sums their lengths.  In a regular
            # local ring multiplicity >= length, with equality where Y is a
            # local complete intersection, so only a smaller value is wrong.
            raise CsmhypError(
                f"Segre leading coefficient {s.coeffs[codim]} is below "
                f"the degree {scheme.deg_y} of the singular scheme"
            )
    return s, pd, scheme
