"""Independent baselines: closed-form classes, Segre classes of linear
subspaces, total Milnor numbers counted in a generic affine chart, and
the reader of fixture corpora, whose built-in corpus is the JSON file
``FIXTURES`` beside this module.

The affine Milnor oracle's colengths are computed modulo the primes that
``segre.usable_primes`` keeps, where, as in the pipeline, a reading can
only be low: the first value read at two of them is returned.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field as dc_field, fields

from .charclasses import REPORT_KEYS, Verification, report_shape_error
from .chow import ChowClass, chern_tangent_pn, hyperplane_power, line_bundle
from .errors import PolynomialParseError, RandomnessError
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

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures.json")


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
    ``expected`` key that is not a top-level report key or whose value
    has not that key's JSON shape (``charclasses.REPORT_SHAPES``), an
    ``n`` that is not an integer >= 1, a non-integer ``milnor_oracle``, a
    ``poly`` that does not parse in ``n + 1`` variables, or a ``name``
    that an earlier row has; the message names the row and key.  JSON
    nested too deeply for the reader raises ``ValueError`` naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests its JSON too deeply to read") from None
    if not isinstance(raw, list):
        raise ValueError(f"fixture corpus is not a JSON list: {raw!r:.40}")
    allowed = {f.name for f in fields(FixtureCase)}
    first_row = {}
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
            ("n", "an integer >= 1", type(row["n"]) is int and row["n"] >= 1),
            ("milnor_oracle", "an integer", milnor is None or type(milnor) is int),
            ("expected", "an object", isinstance(row.get("expected", {}), dict)),
            ("provenance", "a string", isinstance(row.get("provenance", ""), str)),
        ):
            if not ok:
                raise ValueError(f"{where} has {key!r} {row[key]!r}, not {want}")
        for key, value in row.get("expected", {}).items():
            if key not in REPORT_KEYS:
                raise ValueError(f"{where} expects the unknown report key {key!r}")
            want = report_shape_error(key, value)
            if want:
                raise ValueError(f"{where} expects {key!r} {value!r:.40}, not {want}")
        fixture = FixtureCase(**row)
        try:
            fixture.parse()
        except PolynomialParseError as exc:
            raise ValueError(
                f"{where} has 'poly' {fixture.poly!r}, which does not parse"
                f" in {fixture.n + 1} variables: {exc}"
            ) from exc
        if fixture.name in first_row:
            raise ValueError(
                f"{where} repeats the name {fixture.name!r}"
                f" of fixture row {first_row[fixture.name]}"
            )
        first_row[fixture.name] = k
        out.append(fixture)
    return out


def default_fixtures() -> list[FixtureCase]:
    """The built-in corpus, read from ``FIXTURES`` by ``load_fixtures``:
    a fresh list on every call.  Every expected value was derived from a
    closed form or a topological count, as each row's ``provenance``
    notes."""
    return load_fixtures(FIXTURES)


def check_fixture(fixture: FixtureCase, report_dict: dict) -> list[Verification]:
    """Compare a computed report against a fixture's expected values:
    one verdict per expected field, named by its key."""
    return [
        Verification(key, report_dict.get(key) == want)
        for key, want in fixture.expected.items()
    ]
