"""Characteristic classes of a hypersurface X in P^n from its Segre data.

Everything here is exact Chow-ring arithmetic on the triple
(n, d, s_Y) where d = deg X and s_Y is the pushforward of the Segre class
of the singular scheme Y.  The Chern-Schwartz-MacPherson class is computed
along four independent routes that are provably equal:

  * compact:    c(TM) * ( s(X) + c(L)^-1 * (s_Y dual tensor L) )
  * binomial:   c(TM) * s(X minus Y)  via the residual binomial sum
  * thickening: c(TM) * s(X(k)) evaluated formally at k = -1
  * mu-class:   c_F(X) + c(L)^(dim X) * (mu dual tensor L)

with c(L) = 1 + d*h and c(TM) = (1 + h)^(n+1).  ``classes_from_segre``
evaluates all four and compares each of the other three with the compact
route; every comparison is a verdict in the report, and a failing one
(an internal bug, not a data condition) carries the difference.

The report builder at the bottom runs the full Groebner pipeline and
bundles classes, Euler characteristic, total Milnor number and the
verification verdicts into one serializable object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb

from .chow import ChowClass, chern_tangent_pn, hyperplane_power, line_bundle, unit
from .errors import CsmhypError
from .poly import Polynomial, parse_poly, to_string
from .segre import ProjectiveDegrees, SingularSchemeData, TrialPolicy, segre_singular_scheme


@dataclass(frozen=True)
class HypersurfaceInput:
    """A degree-d hypersurface in P^n together with the pushforward of the
    Segre class of its singular scheme."""

    n: int
    d: int
    s_y: ChowClass

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("hypersurface degree must be positive")
        if self.s_y.n != self.n:
            raise ValueError("Segre class lives in the wrong ambient space")
        if self.s_y.coeffs[0] != 0:
            raise ValueError("singular scheme cannot be all of P^n")


def segre_x(n: int, d: int) -> ChowClass:
    """Segre class of the hypersurface itself: d*h / (1 + d*h), the
    divisor class capped with the inverse of its normal bundle."""
    if d < 1:
        raise ValueError("hypersurface degree must be positive")
    return hyperplane_power(n, 1) * Fraction(d) * line_bundle(n, d).inverse()


def s_x_minus_y_binomial(inp: HypersurfaceInput) -> ChowClass:
    """Residual class via the dimensionwise binomial sum.

    In codimension k = n - m the dimension-m piece is
    s(X)_m + (-1)^k sum_j C(k, j) (d h)^j . s_Y,(m+j).
    """
    n, d = inp.n, inp.d
    sx = segre_x(n, d)
    out = []
    for k in range(n + 1):
        acc = Fraction(0)
        for j in range(k + 1):
            acc += comb(k, j) * Fraction(d) ** j * inp.s_y.coeffs[k - j]
        out.append(sx.coeffs[k] + (-1) ** k * acc)
    return ChowClass(n, out)


def s_x_minus_y_compact(inp: HypersurfaceInput) -> ChowClass:
    """Residual class in closed form: s(X) + c(L)^-1 (s_Y dual tensor L)."""
    n, d = inp.n, inp.d
    twisted = inp.s_y.dual().tensor(d)
    return segre_x(n, d) + line_bundle(n, d).inverse() * twisted


def fulton(inp: HypersurfaceInput) -> ChowClass:
    """Chern class of the virtual tangent bundle: c(TM) * s(X)."""
    return chern_tangent_pn(inp.n) * segre_x(inp.n, inp.d)


def csm(inp: HypersurfaceInput) -> ChowClass:
    """Chern-Schwartz-MacPherson class of X (compact evaluation route)."""
    return chern_tangent_pn(inp.n) * s_x_minus_y_compact(inp)


def segre_thickened(inp: HypersurfaceInput, k: int) -> ChowClass:
    """Segre class of X thickened k times along Y, as a formal polynomial
    in k (evaluated literally, with 0**0 = 1)."""
    n, d = inp.n, inp.d
    sx = segre_x(n, d)
    out = []
    for c_ in range(n + 1):
        acc = Fraction(0)
        for j in range(c_ + 1):
            acc += (
                comb(c_, j)
                * Fraction(-d) ** j
                * Fraction(k) ** (c_ - j)
                * inp.s_y.coeffs[c_ - j]
            )
        out.append(sx.coeffs[c_] + acc)
    return ChowClass(n, out)


def csm_via_thickening(inp: HypersurfaceInput) -> ChowClass:
    """CSM class as the Fulton class of the formal (-1)-thickening."""
    return chern_tangent_pn(inp.n) * segre_thickened(inp, -1)


def mu_class(inp: HypersurfaceInput) -> ChowClass:
    """The mu-class of Y: c(T*M tensor L) * s_Y, with the twisted cotangent
    Chern class (1 + (d-1)h)^(n+1) / (1 + d h) from the Euler sequence."""
    n, d = inp.n, inp.d
    twisted_cotangent = (
        line_bundle(n, d - 1) ** (n + 1)
    ) * line_bundle(n, d).inverse()
    return twisted_cotangent * inp.s_y


def csm_via_mu(inp: HypersurfaceInput) -> ChowClass:
    """CSM class as Fulton class plus the mu-class correction:
    c_F(X) + c(L)^(n-1) * (mu dual tensor L)."""
    n, d = inp.n, inp.d
    correction = (line_bundle(n, d) ** (n - 1)) * mu_class(inp).dual().tensor(d)
    return fulton(inp) + correction


def euler_characteristic(c: ChowClass) -> int:
    """Degree of a CSM class; must be an integer."""
    value = c.integral()
    if value.denominator != 1:
        raise CsmhypError(f"Euler characteristic {value} is not an integer")
    return int(value)


def milnor_total(inp: HypersurfaceInput, euler: int):
    """Total Milnor number of X as the degree of the mu-class.

    Returns ``(milnor, identity_holds)`` where the identity is
    milnor == (-1)^n (chi(X) - chi_virtual) with chi_virtual the degree of
    the Fulton class (the Euler characteristic a smooth member of the
    linear system would have).
    """
    value = mu_class(inp).integral()
    if value.denominator != 1:
        raise CsmhypError(f"total Milnor number {value} is not an integer")
    milnor = int(value)
    virtual = fulton(inp).integral()
    holds = Fraction(milnor) == (-1) ** inp.n * (euler - virtual)
    return milnor, holds


def csm_smooth_singularity(
    inp: HypersurfaceInput, cty: ChowClass, codim_y: int
) -> ChowClass:
    """Shortcut valid when Y is smooth, with c(TY) cap [Y] supplied by the
    caller (smoothness is the caller's obligation):
    c_F(X) + (-1)^codim c(TY)/(1 + d h) cap [Y]."""
    n, d = inp.n, inp.d
    return fulton(inp) + line_bundle(n, d).inverse() * cty * Fraction(
        (-1) ** codim_y
    )


def csm_normal_crossings(n: int, degrees) -> ChowClass:
    """CSM class of a normal-crossings union of smooth hypersurfaces of the
    given degrees: c(TM) (1 - prod_i (1 + d_i h)^-1)."""
    degrees = list(degrees)
    if not degrees:
        raise ValueError("need at least one hypersurface degree")
    prod_inv = unit(n)
    for d in degrees:
        prod_inv = prod_inv * line_bundle(n, d).inverse()
    return chern_tangent_pn(n) * (unit(n) - prod_inv)


def segre_singular_nc(n: int, degrees) -> ChowClass:
    """Closed-form Segre class of the singular scheme of a normal-crossings
    arrangement: (1 - (1 - D h) / prod_i (1 - d_i h)) tensor O(D), D = sum d_i."""
    degrees = list(degrees)
    if not degrees:
        raise ValueError("need at least one hypersurface degree")
    total = sum(degrees)
    den = unit(n)
    for d in degrees:
        den = den * line_bundle(n, -d)
    inner = unit(n) - line_bundle(n, -total) * den.inverse()
    return inner.tensor(total)


# -- full-pipeline report -----------------------------------------------------


@dataclass(frozen=True)
class Verification:
    name: str
    ok: bool
    difference: ChowClass | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.ok}


@dataclass(frozen=True)
class ClassReport:
    """Computed output bundle for one hypersurface, plus verdicts."""

    n: int
    d: int
    poly: str
    projective_degrees: ProjectiveDegrees
    scheme: SingularSchemeData
    segre_singular: ChowClass
    csm: ChowClass
    fulton: ChowClass
    mu: ChowClass
    euler: int
    milnor_total: int
    verification: tuple = dc_field(default_factory=tuple)

    @property
    def input(self) -> HypersurfaceInput:
        return HypersurfaceInput(self.n, self.d, self.segre_singular)

    def fulton_thickened(self, k: int) -> ChowClass:
        """Fulton class of the formal k-thickening of X along Y."""
        return chern_tangent_pn(self.n) * segre_thickened(self.input, k)

    @property
    def all_passed(self) -> bool:
        return all(v.ok for v in self.verification)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "poly": self.poly,
            "projective_degrees": list(self.projective_degrees.g),
            "segre_singular": self.segre_singular.to_strings(),
            "csm": self.csm.to_strings(),
            "fulton": self.fulton.to_strings(),
            "mu": self.mu.to_strings(),
            "euler": self.euler,
            "milnor_total": self.milnor_total,
            "verification": [v.to_json() for v in self.verification],
            "trials": [t.to_json() for t in self.projective_degrees.trials],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def classes_from_segre(n: int, d: int, s_y: ChowClass):
    """CSM, Fulton and mu classes for a given Segre input, plus one
    verdict per alternative CSM route.

    Returns ``(csm, fulton, mu, verdicts)``.  Each route is compared
    exactly with the compact route ``csm``; a disagreement is a failing
    verdict carrying the difference, never an exception.
    """
    inp = HypersurfaceInput(n, d, s_y)
    c_csm = csm(inp)
    c_tm = chern_tangent_pn(n)
    verdicts = []
    for name, c in (
        ("csm_residual_binomial_route", c_tm * s_x_minus_y_binomial(inp)),
        ("csm_thickening_route", csm_via_thickening(inp)),
        ("csm_mu_class_route", csm_via_mu(inp)),
    ):
        ok = c == c_csm
        verdicts.append(Verification(name, ok, None if ok else c - c_csm))
    return c_csm, fulton(inp), mu_class(inp), verdicts


def build_report(
    F: Polynomial | str,
    nvars: int | None = None,
    policy: TrialPolicy = TrialPolicy(),
) -> ClassReport:
    """Run the full pipeline on a homogeneous polynomial over Q."""
    if isinstance(F, str):
        if nvars is None:
            raise ValueError("nvars is required when passing polynomial text")
        F = parse_poly(F, nvars)
    if F.field.kind != "rationals":
        raise ValueError("pipeline input must be a polynomial over Q")
    n = F.nvars - 1
    d = F.degree
    if n < 1:
        raise ValueError(
            f"a hypersurface needs a projective space P^n with n >= 1; "
            f"got {F.nvars} variable(s)"
        )
    if d < 1:
        raise ValueError(f"a hypersurface needs degree >= 1; got degree {d}")
    s_y, pd, scheme = segre_singular_scheme(F, policy)
    c_csm, c_fulton, c_mu, checks = classes_from_segre(n, d, s_y)
    euler = euler_characteristic(c_csm)
    milnor, milnor_ok = milnor_total(HypersurfaceInput(n, d, s_y), euler)

    checks += [
        Verification("milnor_degree_identity", milnor_ok),
        Verification(
            "segre_smooth_vanishing",
            scheme.is_smooth == all(c == 0 for c in s_y.coeffs),
        ),
        Verification(
            "integrality",
            all(cl.is_integral() for cl in (s_y, c_csm, c_fulton, c_mu)),
        ),
    ]
    if scheme.is_smooth:
        checks.append(Verification("smooth_coincidence", c_csm == c_fulton))

    return ClassReport(
        n=n,
        d=d,
        poly=to_string(F),
        projective_degrees=pd,
        scheme=scheme,
        segre_singular=s_y,
        csm=c_csm,
        fulton=c_fulton,
        mu=c_mu,
        euler=euler,
        milnor_total=milnor,
        verification=tuple(checks),
    )


def reduced_invariance_check(
    F: Polynomial,
    F_red: Polynomial,
    policy: TrialPolicy = TrialPolicy(),
) -> Verification:
    """Run the full pipeline on F and on its squarefree part (supplied by
    the caller; no factoring here) and compare the CSM classes.  The
    degrees differ; equality is of classes in the Chow ring of P^n."""
    r1 = build_report(F, policy=policy)
    r2 = build_report(F_red, policy=policy)
    ok = r1.csm == r2.csm
    return Verification(
        "reduced_invariance", ok, None if ok else r1.csm - r2.csm
    )
