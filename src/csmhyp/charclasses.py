"""Characteristic classes of a hypersurface X in P^n from its Segre data.

Everything here is exact Chow-ring arithmetic on the triple
(n, d, s_Y) where d = deg X and s_Y is the pushforward of the Segre class
of the singular scheme Y.  The paper gives the Chern-Schwartz-MacPherson
class in four formulations that are equal in Z[h]/(h^(n+1)) for every s_Y:

  * compact:    c(TM) * ( s(X) + c(L)^-1 * (s_Y dual tensor L) )
  * binomial:   c(TM) * s(X minus Y)  via the residual binomial sum
  * thickening: c(TM) * s(X(k)) evaluated formally at k = -1
  * mu-class:   c_F(X) + c(L)^(dim X) * (mu dual tensor L)

with c(L) = 1 + d*h and c(TM) = (1 + h)^(n+1).  The pipeline evaluates
the compact one; the other three are library functions that the tests
compare against it, since no input can make them disagree and only a
code bug could.

The report builder at the bottom runs the full Groebner pipeline and
bundles classes, Euler characteristic and total Milnor number into one
serializable object.  Its verdicts come only from oracles run on the
input (``compute --verify``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from math import comb

from .chow import ChowClass, chern_tangent_pn, line_bundle, unit
from .poly import Polynomial, parse_poly, to_string
from .segre import ProjectiveDegrees, TrialPolicy, segre_singular_scheme


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
    divisor class capped with the inverse of its normal bundle, in closed
    form as sum_(k >= 1) -(-d)^k h^k."""
    if d < 1:
        raise ValueError("hypersurface degree must be positive")
    return ChowClass(n, [0] + [-((-d) ** k) for k in range(1, n + 1)])


def s_x_minus_y_binomial(inp: HypersurfaceInput) -> ChowClass:
    """Residual class via the dimensionwise binomial sum.

    In codimension k = n - m the dimension-m piece is
    s(X)_m + (-1)^k sum_j C(k, j) (d h)^j . s_Y,(m+j).
    """
    n, d = inp.n, inp.d
    sx = segre_x(n, d)
    out = []
    for k in range(n + 1):
        acc = 0
        for j in range(k + 1):
            acc += comb(k, j) * d ** j * inp.s_y.coeffs[k - j]
        out.append(sx.coeffs[k] + (-1) ** k * acc)
    return ChowClass(n, out)


def s_x_minus_y_compact(inp: HypersurfaceInput) -> ChowClass:
    """Residual class in closed form: s(X) + c(L)^-1 (s_Y dual tensor L)."""
    n, d = inp.n, inp.d
    twisted = inp.s_y.dual().tensor(d)
    return segre_x(n, d) + line_bundle(n, d, -1) * twisted


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
        acc = 0
        for j in range(c_ + 1):
            acc += comb(c_, j) * (-d) ** j * k ** (c_ - j) * inp.s_y.coeffs[c_ - j]
        out.append(sx.coeffs[c_] + acc)
    return ChowClass(n, out)


def csm_via_thickening(inp: HypersurfaceInput) -> ChowClass:
    """CSM class as the Fulton class of the formal (-1)-thickening."""
    return chern_tangent_pn(inp.n) * segre_thickened(inp, -1)


def mu_class(inp: HypersurfaceInput) -> ChowClass:
    """The mu-class of Y: c(T*M tensor L) * s_Y, with the twisted cotangent
    Chern class (1 + (d-1)h)^(n+1) / (1 + d h) from the Euler sequence."""
    n, d = inp.n, inp.d
    return line_bundle(n, d - 1, n + 1) * line_bundle(n, d, -1) * inp.s_y


def csm_via_mu(inp: HypersurfaceInput) -> ChowClass:
    """CSM class as Fulton class plus the mu-class correction:
    c_F(X) + c(L)^(n-1) * (mu dual tensor L)."""
    n, d = inp.n, inp.d
    correction = line_bundle(n, d, n - 1) * mu_class(inp).dual().tensor(d)
    return fulton(inp) + correction


def euler_characteristic(c: ChowClass) -> int:
    """Degree of a CSM class."""
    return c.integral()


def milnor_total(mu: ChowClass) -> int:
    """Total Milnor number of X in P^n as the degree of its mu-class.

    It obeys milnor == (-1)^n (chi(X) - chi_virtual), with chi_virtual the
    degree of the Fulton class, by the mu-class formulation of the CSM
    class: the h^n coefficient of c(L)^(n-1) (mu^v tensor L) is
    (-1)^n deg mu, since each lower piece a_m h^m of mu contributes
    (-1)^m a_m h^m (1 + d h)^(n-1-m), of degree below n.
    """
    return mu.integral()


def csm_smooth_singularity(
    inp: HypersurfaceInput, cty: ChowClass, codim_y: int
) -> ChowClass:
    """Shortcut valid when Y is smooth, with c(TY) cap [Y] supplied by the
    caller (smoothness is the caller's obligation):
    c_F(X) + (-1)^codim c(TY)/(1 + d h) cap [Y]."""
    n, d = inp.n, inp.d
    return fulton(inp) + line_bundle(n, d, -1) * cty * (-1) ** codim_y


def _arrangement(n: int, degrees) -> list:
    degrees = list(degrees)
    if n < 1 or not degrees or min(degrees) < 1:
        raise ValueError(f"need n >= 1 and degrees >= 1; n = {n}, degrees {degrees}")
    return degrees


def csm_normal_crossings(n: int, degrees) -> ChowClass:
    """CSM class of a normal-crossings union of smooth hypersurfaces of the
    given degrees: c(TM) (1 - prod_i (1 + d_i h)^-1)."""
    degrees = _arrangement(n, degrees)
    prod_inv = unit(n)
    for d in degrees:
        prod_inv = prod_inv * line_bundle(n, d, -1)
    return chern_tangent_pn(n) * (unit(n) - prod_inv)


def segre_singular_nc(n: int, degrees) -> ChowClass:
    """Closed-form Segre class of the singular scheme of a normal-crossings
    arrangement: (1 - (1 - D h) / prod_i (1 - d_i h)) tensor O(D), D = sum d_i."""
    degrees = _arrangement(n, degrees)
    total = sum(degrees)
    quotient = line_bundle(n, -total)
    for d in degrees:
        quotient = quotient * line_bundle(n, -d, -1)
    return (unit(n) - quotient).tensor(total)


# -- full-pipeline report -----------------------------------------------------


@dataclass(frozen=True)
class Verification:
    name: str
    ok: bool

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.ok}


@dataclass(frozen=True)
class ClassReport:
    """Computed output bundle for one hypersurface, plus oracle verdicts."""

    n: int
    d: int
    poly: str
    projective_degrees: ProjectiveDegrees
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


# The JSON shape of each top-level value of ``ClassReport.to_json_dict``:
# one key per field, and the trial log of the projective degrees.  A type
# is matched exactly, so a bool is not an integer; ``[t]`` is a list of t.
REPORT_SHAPES = {
    "n": int, "d": int, "euler": int, "milnor_total": int, "poly": str,
    "projective_degrees": [int], "segre_singular": [str], "csm": [str],
    "fulton": [str], "mu": [str], "verification": list, "trials": list,
}
REPORT_KEYS = frozenset(REPORT_SHAPES)
_SHAPE_NAMES = {
    int: ("an integer", "integers"), str: ("a string", "strings"), list: ("a list",),
}


def report_shape_error(key: str, value) -> str | None:
    """None when ``value`` has the JSON shape of the report key ``key``,
    else the shape it should have, as "an integer" or "a list of strings"."""
    shape = REPORT_SHAPES[key]
    if type(shape) is not list:
        return None if type(value) is shape else _SHAPE_NAMES[shape][0]
    if type(value) is list and all(type(v) is shape[0] for v in value):
        return None
    return f"a list of {_SHAPE_NAMES[shape[0]][1]}"


def classes_from_segre(n: int, d: int, s_y: ChowClass):
    """CSM (compact formulation), Fulton and mu classes for a given Segre
    input, as ``(csm, fulton, mu)``."""
    inp = HypersurfaceInput(n, d, s_y)
    return csm(inp), fulton(inp), mu_class(inp)


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
    s_y, pd, _ = segre_singular_scheme(F, policy)
    c_csm, c_fulton, c_mu = classes_from_segre(n, d, s_y)
    return ClassReport(
        n=n,
        d=d,
        poly=to_string(F),
        projective_degrees=pd,
        segre_singular=s_y,
        csm=c_csm,
        fulton=c_fulton,
        mu=c_mu,
        euler=euler_characteristic(c_csm),
        milnor_total=milnor_total(c_mu),
    )
