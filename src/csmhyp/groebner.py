"""Groebner-basis engine over prime fields.

Buchberger's algorithm with the normal selection strategy and the two
classical pair-elimination criteria; full multivariate division for normal
forms; saturation by one element via the extra-variable elimination
method; and Hilbert-series extraction of projective dimension and degree
from a monomial ideal of leading terms.

All heavy computation is modular: the engine refuses rational
coefficients.  Polynomials need not be homogeneous (saturation adjoins an
auxiliary variable with inhomogeneous relations; the affine Milnor oracle
divides affine ideals), and every order used here is global, so division
terminates regardless.

Inner loops work on raw term dicts ``{exponent_tuple: int}`` mod p;
``Polynomial`` values are unwrapped at the public boundary.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from .poly import Polynomial, grevlex_key


def _elim_last_key(m):
    # Block order eliminating the last variable: compare its exponent
    # first, then grevlex on the rest.  Restricted to monomials free of
    # the last variable this is plain grevlex.
    return (m[-1], grevlex_key(m[:-1]))


def _neg_grevlex_key(m):
    # entrywise negation of the ascending key: lexicographic order flips,
    # so a min-heap on these pops the largest monomial first
    return (-sum(m), m[::-1])


def _neg_elim_last_key(m):
    head = m[:-1]
    return (-m[-1], -sum(head), head[::-1])


class _Order:
    """A monomial order: ascending sort key plus its negation for heaps."""

    __slots__ = ("key", "heapkey")

    def __init__(self, key, heapkey):
        self.key = key
        self.heapkey = heapkey


_GREVLEX = _Order(grevlex_key, _neg_grevlex_key)
_ELIM_LAST = _Order(_elim_last_key, _neg_elim_last_key)


# -- dict-level core ----------------------------------------------------------


def _divides(a, b) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _monic_by(d, order, p):
    lead = max(d, key=order.key)
    c = d[lead]
    if c == 1:
        return d
    inv = pow(c, p - 2, p)
    return {m: (v * inv) % p for m, v in d.items()}


def _reduce_full(f, lts, G, order, p):
    """Full normal form of term dict ``f`` against monic divisors ``G``.

    The working polynomial is driven by a lazy max-heap of monomials:
    entries going stale on cancellation are skipped at pop time, and a
    reduction step only ever creates monomials below the one it removes,
    so pops are monotone and each surviving monomial is handled once.
    """
    work = dict(f)
    if not work:
        return work
    heapkey = order.heapkey
    heap = [(heapkey(m), m) for m in work]
    heapq.heapify(heap)
    push = heapq.heappush
    n_div = len(lts)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        for idx in range(n_div):
            lt = lts[idx]
            divides = True
            for a, b in zip(lt, m):
                if a > b:
                    divides = False
                    break
            if divides:
                q = tuple(a - b for a, b in zip(m, lt))
                for mg, cg in G[idx].items():
                    mm = tuple(a + b for a, b in zip(q, mg))
                    old = work.get(mm)
                    if old is None:
                        v = (-c * cg) % p
                        if v:
                            work[mm] = v
                            push(heap, (heapkey(mm), mm))
                    else:
                        v = (old - c * cg) % p
                        if v:
                            work[mm] = v
                        else:
                            del work[mm]
                break
        else:
            remainder[m] = c
            del work[m]
    return remainder


def _spoly(gi, lti, gj, ltj, p):
    L = _lcm(lti, ltj)
    u = tuple(a - b for a, b in zip(L, lti))
    v = tuple(a - b for a, b in zip(L, ltj))
    out = {}
    for m, c in gi.items():
        mm = tuple(a + b for a, b in zip(u, m))
        out[mm] = c
    for m, c in gj.items():
        mm = tuple(a + b for a, b in zip(v, m))
        w = (out.get(mm, 0) - c) % p
        if w:
            out[mm] = w
        elif mm in out:
            del out[mm]
    return out


def _reduced_basis(G, order, p):
    """Minimalize and tail-reduce a Groebner basis; sorted lead-descending."""
    key = order.key
    lts = [max(g, key=key) for g in G]
    by_lead = sorted(range(len(G)), key=lambda i: key(lts[i]))
    kept = []
    for i in by_lead:
        if not any(_divides(lts[j], lts[i]) for j in kept):
            kept.append(i)
    polys = [G[i] for i in kept]
    leads = [lts[i] for i in kept]
    out = []
    for i, g in enumerate(polys):
        others_lts = leads[:i] + leads[i + 1 :]
        others = polys[:i] + polys[i + 1 :]
        r = _reduce_full(g, others_lts, others, order, p)
        out.append(_monic_by(r, order, p))
    out.sort(key=lambda g: key(max(g, key=key)), reverse=True)
    return out


def _buchberger(gens, order, p):
    key = order.key
    G, lts = [], []
    for d in gens:
        if not d:
            continue
        r = _reduce_full(d, lts, G, order, p)
        if r:
            G.append(_monic_by(r, order, p))
            lts.append(max(r, key=key))

    heap = []
    pending = set()

    def push(i, j):
        pair = (i, j) if i < j else (j, i)
        heapq.heappush(heap, (key(_lcm(lts[i], lts[j])), pair[0], pair[1]))
        pending.add(pair)

    for j in range(len(G)):
        for i in range(j):
            push(i, j)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        li, lj = lts[i], lts[j]
        # first criterion: coprime leading terms
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue
        # second (chain) criterion: some treated intermediate divides the lcm
        L = _lcm(li, lj)
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if _divides(lts[k], L):
                ik = (i, k) if i < k else (k, i)
                jk = (j, k) if j < k else (k, j)
                if ik not in pending and jk not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = _reduce_full(_spoly(G[i], li, G[j], lj, p), lts, G, order, p)
        if r:
            G.append(_monic_by(r, order, p))
            lts.append(max(r, key=key))
            new = len(G) - 1
            for i2 in range(new):
                push(i2, new)
    return _reduced_basis(G, order, p)


# -- public polynomial-level API ----------------------------------------------


@dataclass(frozen=True)
class IdealBasis:
    """A generating set of an ideal, optionally certified Groebner.

    When ``groebner`` is set the generators form the reduced basis for
    ``order`` and ``leading_terms`` caches their leading monomials.
    """

    gens: tuple = ()
    order: str = "grevlex"
    groebner: bool = False
    leading_terms: tuple = dc_field(default_factory=tuple)

    @property
    def nvars(self) -> int:
        if not self.gens:
            raise ValueError("empty basis carries no ring data")
        return self.gens[0].nvars

    @property
    def field(self):
        if not self.gens:
            raise ValueError("empty basis carries no ring data")
        return self.gens[0].field

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def is_unit_ideal(self) -> bool:
        return any(m == (0,) * g.nvars for g in self.gens for m in g.terms)


def _require_modular(gens):
    field = gens[0].field
    if field.kind != "prime":
        raise ValueError("Groebner computation runs over a prime field only")
    nvars = gens[0].nvars
    for g in gens:
        if g.field != field or g.nvars != nvars:
            raise ValueError("generators must share one ring")
    return field, nvars


def buchberger(gens) -> IdealBasis:
    """Reduced Groebner basis (grevlex) of the ideal the generators span."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return IdealBasis((), "grevlex", True, ())
    field, nvars = _require_modular(gens)
    dicts = _buchberger([g.terms for g in gens], _GREVLEX, field.p)
    template = gens[0]
    polys = tuple(template._wrap(d) for d in dicts)
    lts = tuple(max(d, key=grevlex_key) for d in dicts)
    return IdealBasis(polys, "grevlex", True, lts)


def normal_form(f: Polynomial, basis: IdealBasis) -> Polynomial:
    """Remainder of f under division by a Groebner basis; zero iff f lies
    in the ideal."""
    if not basis.groebner:
        raise ValueError("normal form requires a Groebner basis")
    if basis.is_zero_ideal():
        return f
    field = basis.field
    if f.field != field or f.nvars != basis.nvars:
        raise ValueError("polynomial does not live in the basis ring")
    r = _reduce_full(
        f.terms,
        list(basis.leading_terms),
        [g.terms for g in basis.gens],
        _GREVLEX,
        field.p,
    )
    return f._wrap(r)


# -- saturation by elimination -------------------------------------------------


def saturate(I: IdealBasis, J: IdealBasis) -> IdealBasis:
    """The saturation I : g^infty by a principal ideal J = (g).

    Computed as (I + (1 - t*g)) intersect k[x] with one elimination of the
    auxiliary variable t.  Removes from V(I) every component on which g
    vanishes.  For a larger ideal J' containing g, I : J'^infty lies in
    I : g^infty, with equality when g lies in no associated prime of I
    that misses J'; a random combination of generators of J' is such a g
    with high probability.
    """
    if len(J.gens) != 1:
        raise ValueError(
            f"saturate takes a principal ideal (one generator), got {len(J.gens)}"
        )
    if not I.gens:
        return IdealBasis((), "grevlex", True, ())
    field, nvars = _require_modular(list(I.gens) + list(J.gens))
    p = field.p
    ext = [{m + (0,): c for m, c in g.terms.items()} for g in I.gens]
    rel = {m + (1,): -c % p for m, c in J.gens[0].terms.items()}
    rel[(0,) * (nvars + 1)] = 1  # 1 - t*g
    ext.append(rel)
    # The t-free part of the reduced basis for the order eliminating t is
    # already the reduced grevlex basis of the contraction, in grevlex
    # lead-descending order.
    elim = _buchberger(ext, _ELIM_LAST, p)
    final = [
        {m[:-1]: c for m, c in d.items()}
        for d in elim
        if all(m[-1] == 0 for m in d)
    ]
    template = I.gens[0]
    polys = tuple(template._wrap(d) for d in final)
    lts = tuple(max(d, key=grevlex_key) for d in final)
    return IdealBasis(polys, "grevlex", True, lts)


# -- Hilbert series of a monomial ideal ----------------------------------------


def _minimalize(monos):
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in monos:
        if not any(_divides(g, m) for g in out):
            out.append(m)
    return tuple(out)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _poly_shift(a, k):
    return (0,) * k + tuple(a)


def _poly_mul_one_minus_tk(a, k):
    # multiply coefficient list a by (1 - t^k)
    return _poly_add(a, tuple(-c for c in _poly_shift(a, k)))


def _hilbert_rec(gens, cache):
    if gens in cache:
        return cache[gens]
    if not gens:
        return (1,)
    if any(sum(m) == 0 for m in gens):
        return (0,)
    nvars = len(gens[0])
    counts = [0] * nvars
    for m in gens:
        for j, e in enumerate(m):
            if e:
                counts[j] += 1
    jmax = max(range(nvars), key=lambda j: counts[j])
    if counts[jmax] <= 1:
        # pairwise coprime generators: a monomial regular sequence
        out = (1,)
        for m in gens:
            out = _poly_mul_one_minus_tk(out, sum(m))
    else:
        pivot = jmax
        colon = _minimalize(
            tuple(
                m[:pivot] + (max(m[pivot] - 1, 0),) + m[pivot + 1 :] for m in gens
            )
        )
        unit = tuple(1 if j == pivot else 0 for j in range(nvars))
        plus = _minimalize(tuple(m for m in gens if m[pivot] == 0) + (unit,))
        out = _poly_add(
            _poly_shift(_hilbert_rec(colon, cache), 1), _hilbert_rec(plus, cache)
        )
    cache[gens] = out
    return out


def hilbert_numerator(monomials, nvars: int) -> list[int]:
    """Coefficients of N(t) where the Hilbert series is N(t)/(1-t)^nvars.

    ``monomials`` generate the monomial ideal (minimalized here); the
    numerator is computed by recursive pivot-variable splitting.
    """
    gens = _minimalize(tuple(tuple(m) for m in monomials))
    for m in gens:
        if len(m) != nvars:
            raise ValueError("monomial length does not match nvars")
    out = list(_hilbert_rec(gens, {}))
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def dim_degree(I: IdealBasis):
    """Projective dimension and degree of Proj of the quotient by I.

    Returns ``(dim, degree)`` with ``dim = None`` (and degree 0) for the
    empty scheme.  The degree of a zero-dimensional scheme is the stable
    value of its Hilbert function, so saturation is not required first.
    """
    if not I.groebner:
        raise ValueError("dim_degree requires a Groebner basis")
    if I.is_zero_ideal():
        raise ValueError("dim_degree of the zero ideal needs ring data; pass generators")
    nvars = I.nvars
    num = hilbert_numerator(I.leading_terms, nvars)
    if all(c == 0 for c in num):
        return None, 0
    cancelled = 0
    while sum(num) == 0:
        # synthetic division by (1 - t)
        q = []
        acc = 0
        for c in num[:-1]:
            acc += c
            q.append(acc)
        num = q if q else [0]
        cancelled += 1
    krull = nvars - cancelled
    if krull <= 0:
        return None, 0
    return krull - 1, sum(num)
