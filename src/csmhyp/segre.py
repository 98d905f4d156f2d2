"""Segre class of the singular scheme of a hypersurface in P^n.

The singular scheme Y of F is cut by the partial derivatives of F (F
itself is redundant in P^n when the characteristic does not divide deg F,
by the Euler relation; primes violating that are rejected).  Its Segre
class, pushed forward to the Chow ring of P^n, is assembled from the
projective degrees of the gradient map p -> (dF/dx_0 : ... : dF/dx_n):

    g_i = degree of the zero-dimensional residual of i random combinations
          of the partials and n-i random hyperplanes, after saturating
          away the base locus by one random combination of the partials,

and then

    s(Y, P^n) = 1 - sum_j g_j * h^j / (1 + e*h)^(j+1),    e = deg F - 1.

Degrees are computed modulo a prime as a probabilistic proxy for
characteristic zero and accepted only under the multi-prime, multi-seed
agreement policy; every trial is recorded for audit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .chow import ChowClass, hyperplane_power, line_bundle, unit
from .errors import CsmhypError, RandomnessError
from .groebner import IdealBasis, buchberger, dim_degree, saturate
from .poly import Polynomial, random_linear_combination, reduce_mod_p, variable

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
    """The jacobian scheme of a hypersurface over one working prime."""

    jacobian: IdealBasis
    d: int
    n: int
    is_smooth: bool
    dim_y: object  # int or None for the empty scheme
    deg_y: int
    partials: tuple = ()


def jacobian_scheme(F: Polynomial) -> SingularSchemeData:
    """Groebnerized partials of F over GF(p), with smoothness decided by
    emptiness of their common projective zero locus."""
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
    partials = tuple(F.partial(i) for i in range(F.nvars))
    nonzero = [q for q in partials if not q.is_zero]
    if not nonzero:
        raise ValueError("all partial derivatives vanish: degenerate input")
    basis = buchberger(nonzero)
    dim_y, deg_y = dim_degree(basis)
    return SingularSchemeData(
        jacobian=basis,
        d=d,
        n=n,
        is_smooth=dim_y is None,
        dim_y=dim_y,
        deg_y=deg_y,
        partials=partials,
    )


def _random_linear_form(nvars: int, field, rng) -> Polynomial:
    while True:
        acc = Polynomial(nvars, {}, field)
        for i in range(nvars):
            acc = acc + variable(nvars, i, field).scale(rng.randrange(field.p))
        if not acc.is_zero:
            return acc


def _degrees_one_trial(scheme: SingularSchemeData, rng) -> tuple:
    """One g-vector at one (prime, seed).

    Every cut is saturated by one random combination g of the partials
    instead of the whole jacobian ideal J.  The two saturations agree
    unless g lies in an associated prime of the cut that misses J, such
    as a point of the zero-dimensional residual; an unlucky draw can only
    lower some g_i, and the agreement policy records it as a
    disagreement.
    """
    n = scheme.n
    nvars = n + 1
    field = scheme.jacobian.field
    nonzero_partials = [q for q in scheme.partials if not q.is_zero]
    base_locus = IdealBasis((random_linear_combination(nonzero_partials, rng),))
    g = []
    for i in range(n + 1):
        for _ in range(DIM_RETRIES):
            gens = [
                random_linear_combination(nonzero_partials, rng) for _ in range(i)
            ]
            gens += [_random_linear_form(nvars, field, rng) for _ in range(n - i)]
            cut = buchberger(gens)
            residual = saturate(cut, base_locus)
            if residual.is_unit_ideal():
                g.append(0)
                break
            dim, deg = dim_degree(residual)
            if dim is None:
                g.append(0)
                break
            if dim == 0:
                g.append(deg)
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
    1 - sum_j g_j h^j / (1 + e h)^(j+1)."""
    n = pd.n
    inv = line_bundle(n, pd.e).inverse()
    acc = unit(n)
    power = inv
    for j in range(n + 1):
        if pd.g[j]:
            acc = acc - hyperplane_power(n, j) * power * Fraction(pd.g[j])
        power = power * inv
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
