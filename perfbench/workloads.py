"""Inputs and expected values of the csmhyp benchmark workloads.

Every input is a homogeneous polynomial over Q given as text.  Every
expected Euler characteristic and Milnor number was derived without
running the pipeline under test; the provenance of each is kept beside
it.  The projective degrees were recorded from runs that agreed at two
distinct primes (32003 and 65537).

The corpus workload is the package's own fixture corpus
(``csmhyp.oracles.default_fixtures``) with the expectations stored there.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Case:
    """One benchmark input: polynomial text, ring size, what it must give."""

    name: str
    poly: str
    nvars: int
    expected: dict = field(default_factory=dict)
    provenance: str = ""
    # Text of a known failure: an op that raises with it counts as failed
    # but does not make the run incorrect.
    expected_error: str | None = None


def _fermat(nvars: int, d: int) -> str:
    return " + ".join(f"x{i}^{d}" for i in range(nvars))


def _smooth_euler(n: int, d: int) -> int:
    """Euler characteristic of a smooth degree-d hypersurface in P^n, by
    the adjunction closed form ``csmhyp.oracles.smooth_chern_class``."""
    from csmhyp.oracles import smooth_chern_class

    return int(smooth_chern_class(n, d).integral())


def _case(name, poly, nvars, d, g, euler, provenance, milnor=None,
          expected_error=None) -> Case:
    # Without a local count, the total Milnor number follows from chi by
    # mu_total = (-1)^n (chi(X) - chi(smooth member of the linear system)).
    n = nvars - 1
    if milnor is None:
        milnor = (-1) ** n * (euler - _smooth_euler(n, d))
        provenance += "; milnor_total = (-1)^n (chi - chi_smooth)"
    expected = {"projective_degrees": g, "euler": euler, "milnor_total": milnor}
    return Case(name, poly, nvars, expected, provenance, expected_error)


def corpus_cases() -> list[Case]:
    """The 18 built-in fixtures: many small reports (n <= 3, d <= 4)."""
    from csmhyp.oracles import default_fixtures

    return [
        Case(f.name, f.poly, f.n + 1, dict(f.expected), f.provenance)
        for f in default_fixtures()
    ]


def isolated_cases() -> list[Case]:
    """Smooth hypersurfaces and ones with isolated singularities, at
    higher degree: the jacobian basis is large, so saturation dominates."""
    return [
        _case(
            "quartic_surface",
            "(x0^2+x1^2+x2^2+x3^2)^2 - 4*x0*x1*x2*x3",
            4, 4, [1, 3, 9, 15], 12,
            "smooth quartic chi=24 minus 12 nodes, at the points where two "
            "coordinates vanish and the other two satisfy x_a^2+x_b^2=0",
            milnor=12,
        ),
        _case(
            "octic_curve",
            "x0^8 + x1^8 + x0^3*x1^3*x2^2 + x1^2*x2^6",
            3, 8, [1, 7, 42], -33,
            "smooth plane octic chi=-40 plus one A7 point at (0:0:1), mu=7",
            milnor=7,
        ),
        _case(
            "fermat_cubic_fourfold",
            _fermat(6, 3),
            6, 3, [1, 2, 4, 8, 16, 32], _smooth_euler(5, 3),
            "smooth: chi from oracles.smooth_chern_class(5, 3)",
            milnor=0,
        ),
        _case(
            "fermat_quintic_threefold",
            _fermat(5, 5),
            5, 5, [1, 4, 16, 64, 256], _smooth_euler(4, 5),
            "smooth: chi from oracles.smooth_chern_class(4, 5)",
            milnor=0,
        ),
        # Raises at the commit that defined this benchmark: the Segre support
        # check equates the Samuel multiplicity (17) with the Tjurina length
        # of Y (16), which differ at this non-quasi-homogeneous point.  It is
        # kept so that the failure stays visible in the failed count; any
        # other failure of it makes the run incorrect.
        _case(
            "quadrifolium",
            "(x0^2+x1^2)^3 - 4*x0^2*x1^2*x2^2",
            3, 6, [1, 5, 8], -1,
            "rational sextic: chi = 2 - (4-1) for the 4-branch point at the "
            "origin; mu = 13 there plus two cusps (mu=2) at the circular "
            "points; g stable over 3 primes x 3 seeds",
            milnor=17,
            expected_error="Segre leading coefficient 17 does not match the degree 16",
        ),
    ]


def nonisolated_cases() -> list[Case]:
    """Hypersurfaces singular along curves or surfaces: saturation must
    strip a positive-dimensional base locus from every cut."""
    pair = "F=(Q+i*x^k)(Q-i*x^k), chi = chi(S1)+chi(S2)-chi(S1 cap S2) = "
    return [
        _case(
            "roman_steiner",
            "x1^2*x2^2 + x2^2*x0^2 + x0^2*x1^2 - x0*x1*x2*x3",
            4, 4, [1, 3, 6, 4], 4,
            "image of P^2: chi(P^2) - chi(3 conics meeting pairwise once) "
            "+ chi(3 concurrent lines) = 3 - 3 + 4",
        ),
        _case(
            "quartic_double_conic",
            "(x0^2+x1^2+x2^2-x3^2)^2 + x3^4",
            4, 4, [1, 3, 3, 3], 6,
            pair + "4 + 4 - 2 (two smooth quadrics meeting along a conic)",
        ),
        _case(
            "sextic_double_cubic",
            "(x0^3+x1^3+x2^3)^2 + x3^6",
            4, 6, [1, 5, 10, 20], 18,
            pair + "9 + 9 - 0 (two cubic surfaces along a plane cubic)",
        ),
        _case(
            "octic_double_quartic",
            "(x0^4+x1^4+x2^4+x3^4)^2 + x3^8",
            4, 8, [1, 7, 21, 63], 52,
            pair + "24 + 24 + 4 (two quartic surfaces along a plane quartic)",
        ),
        _case(
            "quartic_3fold_double_quadric",
            "(x0^2+x1^2+x2^2+x3^2+x4^2)^2 + x4^4",
            5, 4, [1, 3, 3, 3, 3], 4,
            pair + "4 + 4 - 4 (two quadric threefolds along a quadric surface)",
        ),
        _case(
            "four_planes",
            "x0*x1*x2*x3",
            4, 4, [1, 3, 3, 1], 4,
            "degree of csm_normal_crossings(3, [1,1,1,1]); inclusion-exclusion "
            "4*3 - 6*2 + 4*1",
        ),
    ]


WORKLOADS = {
    "corpus": corpus_cases,
    "isolated": isolated_cases,
    "nonisolated": nonisolated_cases,
}

# Passes a run makes at the least, past --seconds if need be.  They also fix
# the percentile op_tail_s reports: the one with 10 samples beyond it in a
# run of MIN_PASSES passes.
MIN_PASSES = {
    "corpus": 10,
    "isolated": 2,
    "nonisolated": 8,
}
