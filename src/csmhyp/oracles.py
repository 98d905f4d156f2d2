"""Independent baselines: closed-form classes, Segre classes of linear
subspaces, total Milnor numbers counted in a generic affine chart, and
the fixture corpus used by the verification suite.

The affine Milnor oracle's colengths are computed modulo the primes that
``segre.usable_primes`` keeps, where, as in the pipeline, a reading can
only be low: the first value read at two of them is returned.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field, fields

from .charclasses import REPORT_KEYS, Verification
from .chow import ChowClass, chern_tangent_pn, hyperplane_power, line_bundle
from .errors import RandomnessError
from .groebner import IdealBasis, buchberger, saturate, standard_monomial_count
from .poly import Polynomial, compose, parse_poly, reduce_mod_p, variable
from .segre import TrialPolicy, usable_primes


def smooth_chern_class(n: int, d: int) -> ChowClass:
    """Pushforward of c(TX) cap [X] for a smooth degree-d hypersurface in
    P^n, by adjunction: (1 + h)^(n+1) * d*h / (1 + d*h)."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and degree d >= 1; got n = {n}, d = {d}")
    return chern_tangent_pn(n) * hyperplane_power(n, 1) * d * line_bundle(n, d, -1)


def segre_linear_subspace(n: int, m: int) -> ChowClass:
    """Segre class of a linear P^m inside P^n: h^(n-m) / (1 + h)^(n-m),
    the inverse normal-bundle Chern class capped with the class of P^m."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n for a proper linear subspace")
    return hyperplane_power(n, n - m) * line_bundle(n, 1, m - n)


# -- affine Milnor oracle -----------------------------------------------------


def _generic_chart(F: Polynomial, p: int) -> Polynomial:
    """F mod p in the affine chart x_n = 1 after the random change of
    coordinates x_n -> x_n + sum_{i<n} a_i x_i, drawn from an rng seeded
    by p alone.

    Only the hyperplane at infinity matters to a Milnor count, and this
    change moves it to the random hyperplane x_n = sum a_i x_i, which
    misses every isolated singular point with high probability.
    """
    rng = random.Random(f"csmhyp:oracle:{p}")
    f = reduce_mod_p(F, p)
    n = f.nvars - 1
    xs = [variable(f.nvars, i, f.field) for i in range(f.nvars)]
    shear = xs[n]
    for x in xs[:n]:
        shear = shear + x.scale(rng.randrange(p))
    return compose(f, xs[:n] + [shear]).dehomogenize(n)


def affine_milnor_total(F: Polynomial, primes=TrialPolicy.primes):
    """Total Milnor number of V(F), counted in a generic affine chart.

    The GF(p) colength of the jacobian ideal (df) = (d_1 f..d_n f) of the
    dehomogenized f sums the Milnor numbers of all critical points of f
    in the chart; the saturation (df) : f^infty keeps only those off
    V(f), so the difference of the two colengths sums the Milnor numbers
    of the singular points of V(F), quasi-homogeneous or not.  Returns
    None when (df) is not zero-dimensional: a non-isolated singular
    locus.  The count is read at ``usable_primes(F, primes)`` in order,
    each prime once; the first value read at two distinct primes is
    returned, or the only one when one prime is usable;
    ``RandomnessError`` when no value repeats.
    """
    if F.field.kind != "rationals":
        raise ValueError("oracle input must be a polynomial over Q")
    n = F.nvars - 1
    if n < 1 or not F.degree:
        raise ValueError(
            "the oracle needs a hypersurface of degree >= 1 in P^n, n >= 1"
        )

    def milnor(p):
        f = _generic_chart(F, p)
        jac = buchberger([f.partial(i) for i in range(n)])
        total = standard_monomial_count(jac)
        if total is None:
            return None
        off = saturate(jac, IdealBasis((f,)))
        return total - standard_monomial_count(off)

    primes = usable_primes(F, primes)
    values = []
    for p in primes:
        value = milnor(p)
        if value in values or len(primes) == 1:
            return value
        values.append(value)
    raise RandomnessError(
        f"affine Milnor dimensions disagree across primes {primes}: {values}"
    )


# -- fixture corpus -----------------------------------------------------------


@dataclass(frozen=True)
class FixtureCase:
    """One named hypersurface with independently derived expected values.

    ``expected`` holds any subset of the report fields (classes as
    codimension-indexed strings); ``milnor_oracle`` is the total Milnor
    number that ``affine_milnor_total`` must reproduce, or None when no
    value was derived independently; ``provenance`` names the oracle
    behind each expectation.
    """

    name: str
    poly: str
    n: int
    expected: dict = dc_field(default_factory=dict)
    milnor_oracle: int | None = None
    provenance: str = ""

    def parse(self) -> Polynomial:
        return parse_poly(self.poly, self.n + 1)


def load_fixtures(path) -> list[FixtureCase]:
    """Read a fixture corpus from a JSON list of FixtureCase dicts.

    A corpus that is not a JSON list, or a row that is not a JSON object,
    raises ``ValueError``.  So does a row without ``name``, ``poly`` or
    ``n``, with a key that is not a ``FixtureCase`` field, a non-string
    ``name``, ``poly`` or ``provenance``, a non-object ``expected``, an
    ``expected`` key that is not a top-level report key, or a
    non-integer ``n`` or ``milnor_oracle``; the message names the row and
    key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"fixture corpus is not a JSON list: {raw!r:.40}")
    allowed = {f.name for f in fields(FixtureCase)}
    out = []
    for k, row in enumerate(raw):
        where = f"fixture row {k}"
        if not isinstance(row, dict):
            raise ValueError(f"{where} is not a JSON object")
        for key in row:
            if key not in allowed:
                raise ValueError(f"{where} has the unknown key {key!r}")
        for key in ("name", "poly", "n"):
            if key not in row:
                raise ValueError(f"{where} lacks the required key {key!r}")
        milnor = row.get("milnor_oracle")
        for key, want, ok in (
            ("name", "a string", isinstance(row["name"], str)),
            ("poly", "a string", isinstance(row["poly"], str)),
            ("n", "an integer", type(row["n"]) is int),
            ("milnor_oracle", "an integer", milnor is None or type(milnor) is int),
            ("expected", "an object", isinstance(row.get("expected", {}), dict)),
            ("provenance", "a string", isinstance(row.get("provenance", ""), str)),
        ):
            if not ok:
                raise ValueError(f"{where} has {key!r} {row[key]!r}, not {want}")
        for key in row.get("expected", {}):
            if key not in REPORT_KEYS:
                raise ValueError(f"{where} expects the unknown report key {key!r}")
        out.append(FixtureCase(**row))
    return out


def default_fixtures() -> list[FixtureCase]:
    """The built-in corpus.  Every expected value was derived from a
    closed form or a topological count, as noted per case."""
    return [
        FixtureCase(
            name="smooth_conic",
            poly="x0^2 + x1^2 + x2^2",
            n=2,
            expected={
                "projective_degrees": [1, 1, 1],
                "segre_singular": ["0", "0", "0"],
                "csm": ["0", "2", "2"],
                "fulton": ["0", "2", "2"],
                "mu": ["0", "0", "0"],
                "euler": 2,
                "milnor_total": 0,
            },
            milnor_oracle=0,
            provenance="smooth conic is P^1, chi=2; degrees (d-1)^i by Bezout",
        ),
        FixtureCase(
            name="smooth_cubic",
            poly="x0^3 + x1^3 + x2^3",
            n=2,
            expected={
                "projective_degrees": [1, 2, 4],
                "segre_singular": ["0", "0", "0"],
                "csm": ["0", "3", "0"],
                "euler": 0,
                "milnor_total": 0,
            },
            milnor_oracle=0,
            provenance="smooth plane cubic is a genus-1 curve, chi=0",
        ),
        FixtureCase(
            name="smooth_quartic",
            poly="x0^4 + x1^4 + x2^4",
            n=2,
            expected={
                "projective_degrees": [1, 3, 9],
                "segre_singular": ["0", "0", "0"],
                "csm": ["0", "4", "-4"],
                "euler": -4,
                "milnor_total": 0,
            },
            provenance="smooth plane quartic has genus 3, chi=2-2g=-4",
        ),
        FixtureCase(
            name="nodal_cubic",
            poly="x1^2*x2 - x0^3 - x0^2*x2",
            n=2,
            expected={
                "projective_degrees": [1, 2, 3],
                "segre_singular": ["0", "0", "1"],
                "csm": ["0", "3", "1"],
                "mu": ["0", "0", "1"],
                "euler": 1,
                "milnor_total": 1,
            },
            milnor_oracle=1,
            provenance=(
                "nodal cubic is a pinched torus, chi=1; node has Milnor "
                "number 1; jacobian scheme is one reduced point, s=h^2"
            ),
        ),
        FixtureCase(
            name="cuspidal_cubic",
            poly="x1^2*x2 - x0^3",
            n=2,
            expected={
                "projective_degrees": [1, 2, 2],
                "segre_singular": ["0", "0", "2"],
                "csm": ["0", "3", "2"],
                "mu": ["0", "0", "2"],
                "euler": 2,
                "milnor_total": 2,
            },
            milnor_oracle=2,
            provenance=(
                "cuspidal cubic is homeomorphic to S^2, chi=2; cusp has "
                "Milnor number 2; jacobian point has multiplicity 2"
            ),
        ),
        FixtureCase(
            name="two_lines",
            poly="x0*x1",
            n=2,
            expected={
                "projective_degrees": [1, 1, 0],
                "segre_singular": ["0", "0", "1"],
                "csm": ["0", "2", "3"],
                "fulton": ["0", "2", "2"],
                "mu": ["0", "0", "1"],
                "euler": 3,
                "milnor_total": 1,
            },
            milnor_oracle=1,
            provenance=(
                "two P^1 glued at a point: chi=2+2-1=3; crossing point is "
                "a node; s(point, P^2)=h^2"
            ),
        ),
        FixtureCase(
            name="three_lines",
            poly="x0*x1*x2",
            n=2,
            expected={
                "projective_degrees": [1, 2, 1],
                "segre_singular": ["0", "0", "3"],
                "csm": ["0", "3", "3"],
                "euler": 3,
                "milnor_total": 3,
            },
            provenance=(
                "triangle of lines: chi=3*2-3=3; three reduced nodes give "
                "s=3h^2 and total Milnor number 3"
            ),
        ),
        FixtureCase(
            name="three_generic_lines",
            poly="x0*x1*(x0 + x1 + x2)",
            n=2,
            expected={
                "projective_degrees": [1, 2, 1],
                "segre_singular": ["0", "0", "3"],
                "csm": ["0", "3", "3"],
                "euler": 3,
                "milnor_total": 3,
            },
            provenance=(
                "projectively equivalent to the coordinate triangle, so the "
                "same classes: chi=3, three nodes"
            ),
        ),
        FixtureCase(
            name="double_line_plus_line",
            poly="x0^2*x1",
            n=2,
            expected={
                "projective_degrees": [1, 1, 0],
                "segre_singular": ["0", "1", "0"],
                "csm": ["0", "2", "3"],
                "euler": 3,
            },
            provenance=(
                "non-reduced: support is two crossing lines, so the class "
                "equals that of x0*x1 (chi=3); singular scheme is the "
                "double line's support"
            ),
        ),
        FixtureCase(
            name="double_line",
            poly="x0^2",
            n=2,
            expected={
                "projective_degrees": [1, 0, 0],
                "segre_singular": ["0", "1", "-1"],
                "csm": ["0", "1", "2"],
                "euler": 2,
            },
            provenance=(
                "support is one line P^1, chi=2; s(line, P^2) = h/(1+h) "
                "by the linear-subspace closed form"
            ),
        ),
        FixtureCase(
            name="double_two_lines",
            poly="x0^2*x1^2",
            n=2,
            expected={
                "projective_degrees": [1, 1, 0],
                "segre_singular": ["0", "2", "-3"],
                "csm": ["0", "2", "3"],
                "euler": 3,
            },
            provenance=(
                "non-reduced with one-dimensional singular scheme (both "
                "lines); class equals that of x0*x1, chi=3"
            ),
        ),
        FixtureCase(
            name="line_plus_conic",
            poly="(x0 + x1 + x2) * (x0^2 + x1^2 - x2^2)",
            n=2,
            expected={
                "projective_degrees": [1, 2, 2],
                "segre_singular": ["0", "0", "2"],
                "csm": ["0", "3", "2"],
                "mu": ["0", "0", "2"],
                "euler": 2,
                "milnor_total": 2,
            },
            milnor_oracle=2,
            provenance=(
                "generic transversal line plus smooth conic: two P^1 glued "
                "at two points, chi=2+2-2=2; two nodes, total Milnor "
                "number 2; normal-crossings closed form gives s=2h^2"
            ),
        ),
        FixtureCase(
            name="quadric_cone",
            poly="x0^2 + x1^2 + x2^2",
            n=3,
            expected={
                "projective_degrees": [1, 1, 1, 0],
                "segre_singular": ["0", "0", "0", "1"],
                "csm": ["0", "2", "4", "3"],
                "fulton": ["0", "2", "4", "4"],
                "mu": ["0", "0", "0", "1"],
                "euler": 3,
                "milnor_total": 1,
            },
            milnor_oracle=1,
            provenance=(
                "cone over a conic: resolving the vertex gives chi=4-2+1=3; "
                "vertex is an ordinary double point, Milnor number 1"
            ),
        ),
        FixtureCase(
            name="smooth_quadric_p3",
            poly="x0^2 + x1^2 + x2^2 + x3^2",
            n=3,
            expected={
                "projective_degrees": [1, 1, 1, 1],
                "segre_singular": ["0", "0", "0", "0"],
                "csm": ["0", "2", "4", "4"],
                "euler": 4,
                "milnor_total": 0,
            },
            milnor_oracle=0,
            provenance="smooth quadric surface is P^1 x P^1, chi=4",
        ),
        FixtureCase(
            name="smooth_cubic_p3",
            poly="x0^3 + x1^3 + x2^3 + x3^3",
            n=3,
            expected={
                "segre_singular": ["0", "0", "0", "0"],
                "csm": ["0", "3", "3", "9"],
                "euler": 9,
                "milnor_total": 0,
            },
            provenance="smooth cubic surface is P^2 blown up at 6 points, chi=3+6=9",
        ),
        FixtureCase(
            name="two_planes_p3",
            poly="x0*x1",
            n=3,
            expected={
                "projective_degrees": [1, 1, 0, 0],
                "segre_singular": ["0", "0", "1", "-2"],
                "csm": ["0", "2", "5", "4"],
                "mu": ["0", "0", "1", "0"],
                "euler": 4,
                "milnor_total": 0,
            },
            provenance=(
                "two P^2 glued along a P^1: chi=3+3-2=4; singular scheme is "
                "a line, s = h^2/(1+h)^2 by the linear-subspace closed form; "
                "one-dimensional singular locus, so the affine Milnor oracle "
                "returns None"
            ),
        ),
        FixtureCase(
            name="three_planes_p3",
            poly="x0*x1*x2",
            n=3,
            expected={
                "projective_degrees": [1, 2, 1, 0],
                "segre_singular": ["0", "0", "3", "-10"],
                "csm": ["0", "3", "6", "4"],
                "euler": 4,
                "milnor_total": 5,
            },
            provenance=(
                "normal-crossings triple of planes: closed-form class gives "
                "chi=4; singular scheme is three concurrent lines, Segre "
                "class from the normal-crossings closed form"
            ),
        ),
        FixtureCase(
            name="double_plane_plus_plane",
            poly="x0^2*x1",
            n=3,
            expected={
                "projective_degrees": [1, 1, 0, 0],
                "segre_singular": ["0", "1", "0", "-4"],
                "csm": ["0", "2", "5", "4"],
                "euler": 4,
            },
            provenance=(
                "non-reduced: support is two planes, so the class equals "
                "that of x0*x1 in P^3 (chi=4)"
            ),
        ),
    ]


def check_fixture(fixture: FixtureCase, report_dict: dict) -> list[Verification]:
    """Compare a computed report against a fixture's expected values:
    one verdict per expected field, named by its key."""
    return [
        Verification(key, report_dict.get(key) == want)
        for key, want in fixture.expected.items()
    ]
