"""Groebner-basis engine over prime fields.

Buchberger's algorithm with the sugar selection strategy (pairs by sugar,
then by lcm; on homogeneous input this is the normal strategy's order),
the Gebauer-Moeller pair update and a first-divisor memo in the reducer; full
multivariate division for normal forms; saturation by one element via the
extra-variable elimination method, keeping only the t-free part; and
Hilbert-series extraction of projective dimension and degree, and of the
colength of an Artinian ideal, from a computed basis's minimal leads.

Every ideal names its ring: a generating set has at least one generator,
and a zero polynomial names the ring of the zero ideal, which is then an
ordinary computed basis with no elements.  An empty generator list
raises ``ValueError``.

A computed basis is kept minimalized and packed, each element as its
lead and its monic tail, the list of its other ``(monomial,
coefficient)`` pairs: a reduction step multiplies out only the
divisor's tail, since the product of its lead cancels the popped term,
and an S-polynomial holds no entry at the lcm, where its two leads
cancel.  R/I and R/in(I) have the same Hilbert function, so the counts
read only its leading terms; the tail reduction to the reduced basis,
and the unpack into ``Polynomial`` values, run only when a caller first
reads its ``gens``.

All heavy computation is modular: the engine refuses rational
coefficients.  Polynomials need not be homogeneous (saturation adjoins an
auxiliary variable with inhomogeneous relations, and both the cuts of the
projective degrees and the affine Milnor oracle live in an affine chart),
and every order used here is global, so division terminates regardless.

Inner loops work on raw term dicts ``{packed_monomial: int}`` mod p;
``Polynomial`` values are unwrapped, and their exponent tuples packed, at
the public boundary.  Inside the reducer, coefficients are reduced mod p
once per monomial, when it is popped, not on every update: an
S-polynomial is handed over unreduced, and a remainder or a basis
element holds every coefficient in [1, p).

A packed monomial is one int of ``W``-bit fields (Monagan and Pearce,
"Sparse polynomial division using a heap", JSC 2011): field i holds the
exponent of x_i for i < r, field r the total degree of those r
variables, and, during saturation, field r + 1 the exponent of the
eliminated variable t.  A product is then a sum, the
degree field included, and ``key(m) = m - 2*(m & pmask)``, where
``pmask`` covers the r exponent fields, is one int ascending in grevlex
and in the order that compares the t exponent first and breaks ties by
grevlex.  The top bit of every field is a guard kept clear: ``lt``
divides ``m`` iff ``(m - lt) & guard`` is zero, and a monomial whose
exponent or degree reaches the guard bit raises ``ValueError`` rather
than carrying into the next field.  With ``W = 16`` each field is one
little-endian unsigned short, so tuples pack and unpack through
``struct``.  One ``_Layout`` per ring size is built and shared.

The Hilbert series is computed on the same packed monomials, the
minimal leads that a computed basis carries: the pivot variable is the
field set in most generators, and the colon by it subtracts that
variable, degree field included, from each generator whose field is set.
"""

from __future__ import annotations

import functools
import heapq
import struct
from itertools import accumulate

from .poly import LIMIT, Polynomial

W = LIMIT.bit_length() + 1  # bits per packed field, guard bit included: 16
_FIELD = (1 << W) - 1


def _overflow() -> ValueError:
    return ValueError(
        f"a monomial exponent or degree exceeds {LIMIT}, the largest the "
        f"Groebner kernel's {W}-bit fields hold"
    )


class _Layout:
    """Packing of exponent tuples in r graded variables, with the field of
    an eliminated variable t above their degree field.

    ``key`` is the ascending order key and ``lcm`` the lcm of two packed
    monomials, both closures over the layout's constants.  ``pmask``
    covers the exponent fields, ``guard`` holds the guard bit of every
    field, t included, and t's exponent sits at ``tshift``.
    """

    __slots__ = (
        "pmask", "guard", "ones", "shifts", "dshift", "tshift", "key", "lcm",
        "_fields", "_exps", "_nbytes",
    )

    def __init__(self, r: int):
        self.pmask = pmask = (1 << (W * r)) - 1
        self.guard = guard = sum(1 << (W * i + W - 1) for i in range(r + 2))
        self.ones = ones = sum(1 << (W * i) for i in range(r))
        self.shifts = tuple(W * i for i in range(r))
        self.dshift = dshift = W * r
        self.tshift = tshift = W * (r + 1)
        self.key = lambda m: m - ((m & pmask) << 1)

        def lcm(a, b):
            # Fieldwise maximum, with the degree field rebuilt as the sum of
            # the exponent fields.  Multiplying by ``ones`` sums them into
            # the top one without carries: every prefix sum is at most the
            # lcm's degree, which stays below 2^W for two monomials with
            # clear guard bits.
            t = ((a | guard) - b) & guard  # guard bit set where a >= b
            mask = t - (t >> (W - 1))
            L = (a & mask) | (b & ~mask)
            low = L & pmask
            deg = (low * ones >> (dshift - W)) & _FIELD
            L = low | (deg << dshift) | (L >> tshift << tshift)
            if L & guard:
                raise _overflow()
            return L

        self.lcm = lcm
        # With W = 16 a field is one little-endian unsigned short, so the
        # exponents and the degree pack and unpack as bytes.
        self._fields = struct.Struct(f"<{r + 1}H").pack
        self._exps = struct.Struct(f"<{r}H").unpack
        self._nbytes = 2 * r

    def pack(self, exps) -> int:
        deg = sum(exps)
        if deg > LIMIT:
            raise _overflow()
        return int.from_bytes(self._fields(*exps, deg), "little")

    def unpack(self, m) -> tuple:
        return self._exps((m & self.pmask).to_bytes(self._nbytes, "little"))


@functools.cache
def _layout(r: int) -> _Layout:
    """The layout of r graded variables, built once per ring size; a
    ``_Layout`` is never mutated, so every caller shares it."""
    return _Layout(r)


# -- dict-level core ----------------------------------------------------------


def _monic(r, p):
    """The monic tail of the remainder ``r``, whose leading term comes
    first: its other terms, as ``(monomial, coefficient)`` pairs, divided
    by the leading coefficient."""
    terms = iter(r.items())
    _, c = next(terms)
    if c == 1:
        return list(terms)
    inv = pow(c, -1, p)
    return [(m, v * inv % p) for m, v in terms]


def _reduce_full(f, lts, G, lay, p, memo):
    """Full normal form of ``f``, a term dict or a list of its
    ``(monomial, coefficient)`` pairs, against the divisors with leads
    ``lts`` and monic tails ``G``.

    The working polynomial is driven by a max-heap of monomials, each
    pushed once, when it first enters ``work``, where it then stays.  A
    reduction step subtracts a multiple of the divisor's tail only: its
    lead would land on the popped monomial, which is never read again.
    The tail's products all lie below the popped monomial, so pops are
    monotone and every update of a monomial's coefficient comes before
    its pop.  The coefficients in ``work`` are sums of products, not
    reduced mod p: each is reduced once, when its monomial is popped,
    and the monomial is skipped when that gives 0.  So ``f`` may hold
    any ints, 0 and negative ones included, and the remainder, filled in
    descending order, has its leading term first and every coefficient
    in [1, p).  The heap holds ``-key(m) = 2*(m & pmask) - m``, a map
    that is its own inverse, so plain ints are compared and m is
    recovered at pop.

    Each monomial is divided by its first dividing lead in ``lts`` order.
    ``memo`` maps a monomial to the index of that lead or, when none
    divides it, to ``~k`` for the k leads tested.  A caller may share one
    memo between calls whose ``lts`` only grows by appending, as it does
    inside one Buchberger run: a later visit then tests only the newer
    leads, and picks the same divisor a full scan would.
    """
    work = dict(f)
    if not work:
        return work
    pmask, guard = lay.pmask, lay.guard
    heap = [((m & pmask) << 1) - m for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    n = len(lts)
    remainder = {}
    while heap:
        nk = pop(heap)
        m = ((nk & pmask) << 1) - nk
        c = work[m] % p
        if not c:
            continue
        j = memo.get(m, -1)  # ~0: no lead tested yet
        if j < 0:
            for j in range(~j, n):
                if not (m - lts[j]) & guard:
                    break
            else:
                memo[m] = ~n
                remainder[m] = c
                continue
            memo[m] = j
        q = m - lts[j]
        for mg, cg in G[j]:
            mm = q + mg
            old = work.get(mm)
            if old is None:
                # a field that overflowed sets its guard bit, so the
                # monomial cannot already be in ``work``
                if mm & guard:
                    raise _overflow()
                work[mm] = -c * cg
                push(heap, ((mm & pmask) << 1) - mm)
            else:
                work[mm] = old - c * cg
    return remainder


def _spoly(ti, li, tj, lj, L, guard):
    """The S-polynomial of the monic elements with leads li and lj and
    tails ti and tj, whose leads have the lcm L: ``u*ti - v*tj`` with
    ``u*li = v*lj = L``, with no entry at L, where the leads cancel, and
    with coefficients left unreduced for ``_reduce_full``."""
    u = L - li
    v = L - lj
    out = {}
    for m, c in ti:
        mm = u + m
        if mm & guard:
            raise _overflow()
        out[mm] = c
    for m, c in tj:
        mm = v + m
        if mm & guard:
            raise _overflow()
        out[mm] = out.get(mm, 0) - c
    return out


def _minimal_basis(G, lts, lay):
    """The elements of a monic Groebner basis, given by their tails ``G``
    and leads ``lts``, whose lead no other lead divides, as ``(leads,
    tails)`` sorted lead-descending.  Ascending, a lead's divisors come
    before it, so only kept ones are tested."""
    key, guard = lay.key, lay.guard
    leads, tails = [], []
    for i in sorted(range(len(G)), key=lambda i: key(lts[i])):
        lt = lts[i]
        if all((lt - m) & guard for m in leads):
            leads.append(lt)
            tails.append(G[i])
    return leads[::-1], tails[::-1]


def _tail_reduced(leads, tails, lay, p):
    """The reduced basis of the minimal monic Groebner basis with leads
    ``leads`` and tails ``tails``, as term dicts in its order.  Each tail
    is reduced against every element, its own included: the tail lies
    below its lead, so only the other leads can divide it, and one memo
    serves all the tails.  A normal form modulo a Groebner basis is
    unique, so the result does not depend on the order of the
    divisors."""
    memo = {}
    out = []
    for lt, tail in zip(leads, tails):
        r = {lt: 1}
        r.update(_reduce_full(tail, leads, tails, lay, p, memo))
        out.append(r)
    return out


def _buchberger(gens, lay, p):
    """A monic Groebner basis of the packed term dicts ``gens``, as
    ``(tails, leads)`` in insertion order, neither minimalized nor
    tail-reduced: each element is its lead and its monic tail, and the
    S-polynomial of a pair is built from the two tails alone.

    Pairs are taken lowest sugar first, then smallest lcm (the sugar
    strategy of Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar
    cube, please", ISSAC 1991).  Sugar counts x-degree only, not t.  An
    input generator's sugar is the degree field of its largest packed
    monomial: its highest x-degree for t-free input and for ``1 - t*g``.
    An element's ecart is its sugar less the degree of its lead; a
    pair's sugar is ``deg(lcm)`` plus the larger ecart of its two
    elements, and the remainder of its S-polynomial joins the basis with
    that sugar.  Sugar is the degree a pair would have were the input
    homogenized, so on homogeneous input every ecart is 0 and pairs pop
    smallest lcm first, the normal strategy's order.  The heap holds one
    int per pair: the sugar shifted above every packed field, plus the
    lcm's key.
    Pairs are kept by the Gebauer-Moeller update (Gebauer and Moeller, "On an
    installation of Buchberger's algorithm", JSC 1988).  When h joins the
    basis, a queued pair (i, j) is dropped when lt(h) divides its lcm
    and neither lcm(i, h) nor lcm(j, h) equals it (criterion B_k).  New
    pairs (i, h) are formed with active elements only; one is dropped
    when another's lcm properly divides its lcm (criterion M); of those
    sharing an lcm one is kept, and none when any of them has coprime
    leads (criterion F and the coprime criterion).  Active elements whose
    lead lt(h) divides then retire: they stay divisors but form no new
    pairs.  Every reduction shares one first-divisor memo, which is sound
    because the basis only grows.
    """
    key, guard, lcm, dshift = lay.key, lay.guard, lay.lcm, lay.dshift
    sshift = lay.tshift + W  # above every packed field, t's included
    heappush, heappop = heapq.heappush, heapq.heappop
    G, lts, ecarts, active, pairs, memo = [], [], [], [], [], {}

    def update(r, sugar):
        nonlocal pairs, active
        lh = next(iter(r))  # remainders come in descending order
        h = len(G)
        G.append(_monic(r, p))
        lts.append(lh)
        eh = sugar - (lh >> dshift & _FIELD)
        ecarts.append(eh)
        kept = [
            e for e in pairs
            if (e[3] - lh) & guard
            or lcm(lts[e[1]], lh) == e[3]
            or lcm(lts[e[2]], lh) == e[3]
        ]
        if len(kept) < len(pairs):
            heapq.heapify(kept)
            pairs = kept
        new = []
        for i in active:
            L = lcm(lts[i], lh)
            new.append((key(L), i, L))
        new.sort()
        # Smallest lcm first, keep the first pair per lcm (F) whose lcm no
        # earlier lcm divides (M).  A coprime pair shares its lcm with no
        # other, since lcm(b, lt(h)) = lt(i)*lt(h) forces lt(i) | lt(b) and
        # active leads divide no other, so F's coprime rule is the check
        # on that first pair.
        firsts = {}  # lcm -> (key, i, coprime)
        for k, i, L in new:
            if L in firsts:
                continue
            for M in firsts:
                if not (L - M) & guard:
                    break
            else:
                firsts[L] = (k, i, L == lts[i] + lh)
        for L, (k, i, coprime) in firsts.items():
            if not coprime:
                sugar = max(ecarts[i], eh) + (L >> dshift & _FIELD)
                heappush(pairs, ((sugar << sshift) + k, i, h, L))
        active = [i for i in active if (lts[i] - lh) & guard]
        active.append(h)

    for d in gens:
        if d:
            r = _reduce_full(d, lts, G, lay, p, memo)
            if r:
                update(r, max(d) >> dshift & _FIELD)
    while pairs:
        k, i, j, L = heappop(pairs)
        s = _spoly(G[i], lts[i], G[j], lts[j], L, guard)
        r = _reduce_full(s, lts, G, lay, p, memo)
        if r:
            update(r, k >> sshift)
    return G, lts


# -- public polynomial-level API ----------------------------------------------


class IdealBasis:
    """A generating set of an ideal, or a Groebner basis that ``buchberger``
    or ``saturate`` computed.

    ``IdealBasis(gens)`` holds a caller's generators as given: a
    generating set, whatever they are, whose ``groebner`` is false and
    whose ``leading_terms`` raise ``ValueError``.  The generators name
    the ring, so there must be at least one, a zero polynomial for the
    zero ideal; an empty list raises ``ValueError``.  Only ``buchberger``
    and ``saturate`` return a Groebner basis, and the read-only
    ``groebner`` is true exactly for those.  A computed basis carries its
    minimal monic basis packed, lead-descending, each element as its
    lead and its monic tail, and its ``leading_terms`` are those leads,
    none for the zero ideal.  Its ``gens``, the reduced grevlex basis as
    ``Polynomial`` values in the same order, are built on their first
    read, by tail-reducing the carried tails and unpacking them with
    their leads, and then kept.  ``nvars`` and
    ``field`` read the ring, so a caller that needs only the leading
    terms, as the Hilbert-function counts do, never pays for the
    reduction.
    """

    __slots__ = ("_gens", "_ring", "_computed")

    def __init__(self, gens: tuple = ()):
        # ``_ring`` holds the polynomials that carry the ring: a caller's
        # generators, or the one a computed basis keeps, whose ring all
        # its elements share.
        self._gens = self._ring = tuple(gens)
        if not self._ring:
            raise ValueError("an ideal needs a generator to name its ring")
        self._computed = None  # (leads, tails, layout) when computed

    @classmethod
    def _from_packed(cls, leads, tails, lay, ring) -> IdealBasis:
        """The computed basis of the minimal monic Groebner basis with
        leads ``leads`` and tails ``tails``, lead-descending, in the ring
        of the polynomial ``ring``."""
        basis = cls((ring,))
        basis._gens = None
        basis._computed = (leads, tails, lay)
        return basis

    @property
    def groebner(self) -> bool:
        return self._computed is not None

    @property
    def leading_terms(self) -> tuple:
        if self._computed is None:
            raise ValueError("a generating set has no leading terms")
        leads, _, lay = self._computed
        return tuple(lay.unpack(m) for m in leads)

    @property
    def gens(self) -> tuple:
        if self._gens is None:
            leads, tails, lay = self._computed
            ring, unpack = self._ring[0], lay.unpack
            self._gens = tuple(
                ring._wrap({unpack(m): c for m, c in d.items()})
                for d in _tail_reduced(leads, tails, lay, ring.field.p)
            )
        return self._gens

    @property
    def nvars(self) -> int:
        return self._ring[0].nvars

    @property
    def field(self):
        return self._ring[0].field


def _require_modular(gens):
    field = gens[0].field
    if field.kind != "prime":
        raise ValueError("Groebner computation runs over a prime field only")
    nvars = gens[0].nvars
    for g in gens:
        if g.field != field or g.nvars != nvars:
            raise ValueError("generators must share one ring")
    return field, nvars


def _packed(f: Polynomial, lay: _Layout) -> dict:
    pack = lay.pack
    return {pack(m): c for m, c in f.terms.items()}


def buchberger(gens) -> IdealBasis:
    """Groebner basis (grevlex) of the ideal the generators span; its
    ``gens`` are the reduced basis, built when first read.  An empty
    list names no ring and raises ``ValueError``; zero generators name
    it and add nothing."""
    gens = list(gens)
    if not gens:
        raise ValueError("an ideal needs a generator to name its ring")
    field, nvars = _require_modular(gens)
    lay = _layout(nvars)
    G, lts = _buchberger([_packed(g, lay) for g in gens], lay, field.p)
    return IdealBasis._from_packed(*_minimal_basis(G, lts, lay), lay, gens[0])


def normal_form(f: Polynomial, basis: IdealBasis) -> Polynomial:
    """Remainder of f under division by a Groebner basis that
    ``buchberger`` or ``saturate`` returned; zero iff f lies in the ideal.
    A generating set ``IdealBasis(gens)`` raises ``ValueError``.  The
    remainder modulo a Groebner basis is unique, so the basis divides by
    its carried leads and monic tails, unreduced."""
    if not basis.groebner:
        raise ValueError("normal form requires a Groebner basis")
    field = basis.field
    if f.field != field or f.nvars != basis.nvars:
        raise ValueError("polynomial does not live in the basis ring")
    leads, tails, lay = basis._computed
    r = _reduce_full(_packed(f, lay), leads, tails, lay, field.p, {})
    unpack = lay.unpack
    return f._wrap({unpack(m): c for m, c in r.items()})


# -- saturation by elimination -------------------------------------------------


def saturate(I: IdealBasis, J: IdealBasis) -> IdealBasis:
    """The saturation I : g^infty by a principal ideal J = (g).

    Computed as (I + (1 - t*g)) intersect k[x] with one elimination of the
    auxiliary variable t; only the t-free elements of that basis are
    minimalized, and they are tail-reduced only when the result's ``gens``
    are first read.  I need not be given by a Groebner basis: its
    generators, or a computed basis's carried elements, each rebuilt from
    its lead and tail, go straight into that elimination, and the result is the reduced basis whatever
    generators I has.  Removes from V(I) every component on which g
    vanishes.  For a larger ideal J' containing g, I : J'^infty lies in
    I : g^infty, with equality when g lies in no associated prime of I
    that misses J'; a random combination of generators of J' is such a g
    with high probability.

    When g is a nonzero constant, I : g^infty is I, and the basis is that
    of I's generators alone, computed in the same layout with no relation
    1 - t*g.  A chart cut saturated by its own chart variable, or by a
    power of it, is such a case.
    """
    if len(J.gens) != 1:
        raise ValueError(
            f"saturate takes a principal ideal (one generator), got {len(J.gens)}"
        )
    field, nvars = _require_modular(list(I._ring) + list(J.gens))
    p = field.p
    lay = _layout(nvars)
    t = 1 << lay.tshift
    if I.groebner:
        leads, tails, _ = I._computed
        ext = [{lt: 1, **dict(tail)} for lt, tail in zip(leads, tails)]
    else:
        ext = [_packed(g, lay) for g in I.gens]
    g = J.gens[0]
    if g.is_zero or any(map(any, g.terms)):  # for a unit g, I : g^infty = I
        rel = {lay.pack(m) + t: -c % p for m, c in g.terms.items()}
        rel[0] = 1  # 1 - t*g
        ext.append(rel)
    # Packed keys order by the t exponent first, so an element whose lead
    # is t-free is t-free, and those elements form a Groebner basis of the
    # contraction, packed as x-monomials are.  A t-free monomial is
    # divisible by t-free leads only, so minimalizing and tail-reducing
    # them alone gives its reduced grevlex basis.
    G, lts = _buchberger(ext, lay, p)
    free = [i for i, m in enumerate(lts) if m < t]
    leads, tails = _minimal_basis([G[i] for i in free], [lts[i] for i in free], lay)
    return IdealBasis._from_packed(leads, tails, lay, I._ring[0])


# -- Hilbert series of a computed basis ---------------------------------------


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul_one_minus_tk(a, k):
    # multiply coefficient list a by (1 - t^k)
    out = a + [0] * k
    for i, c in enumerate(a):
        out[i + k] -= c
    return out


def _hilbert_rec(gens, lay, cache):
    """Coefficients of the Hilbert numerator of the monomial ideal whose
    minimal generators are the packed monomials ``gens``, a tuple that is
    the cache key; the calls it makes pass theirs ascending, so an ideal
    met twice is one key.

    Splits on the pivot variable x that divides the most generators:
    N(I) = N(I + (x)) + t*N(I : x).  Generators that share no variable
    form a regular sequence, with numerator prod (1 - t^deg m); the unit
    ideal, whose one generator is 1, is such a case with numerator 0.
    """
    if not gens:
        return [1]
    out = cache.get(gens)
    if out is not None:
        return out
    # Adding LIMIT to each exponent field sets its guard bit exactly when
    # the field is nonzero; moved down to the field's lowest bit, those
    # bits sum fieldwise into the number of generators each variable
    # divides, which stays below 2^W as long as there are fewer generators.
    pmask, ones = lay.pmask, lay.ones
    fill = LIMIT * ones
    counts = 0
    for m in gens:
        counts += ((m & pmask) + fill) >> (W - 1) & ones
    best, pivot = 0, 0
    for s in lay.shifts:
        c = (counts >> s) & _FIELD
        if c > best:
            best, pivot = c, s
    if best <= 1:
        out = [1]
        for m in gens:
            out = _poly_mul_one_minus_tk(out, m >> lay.dshift)
    else:
        x = (1 << pivot) | (1 << lay.dshift)  # the pivot variable, degree 1
        field = _FIELD << pivot
        # I : x.  The quotients by x divide no other quotient, and nothing
        # free of x divides one, so only quotients can remove an x-free
        # generator.  I + (x) is minimal as it stands.
        guard = lay.guard
        quotients = [m - x for m in gens if m & field]
        free = [m for m in gens if not m & field]
        colon = quotients + [
            m for m in free if all((m - q) & guard for q in quotients)
        ]
        colon.sort()
        free.append(x)
        free.sort()
        out = _poly_add(
            [0] + _hilbert_rec(tuple(colon), lay, cache),
            _hilbert_rec(tuple(free), lay, cache),
        )
    cache[gens] = out
    return out


def hilbert_numerator(I: IdealBasis) -> list[int]:
    """Coefficients of N(t), where the Hilbert series of R/I is
    N(t)/(1-t)^nvars, for a Groebner basis I that ``buchberger`` or
    ``saturate`` returned; a generating set ``IdealBasis(gens)`` raises
    ``ValueError``.  The zero ideal gives ``[1]``.

    R/I and R/in(I) have the same Hilbert function, and the leads that a
    computed basis carries are the minimal generators of in(I), packed,
    so the numerator is computed from them by recursive pivot-variable
    splitting.  They are lead-descending, not ascending as packed ints,
    but the order of the top call's generators changes neither its pivot
    nor the sorted generators of the calls it makes, so the numerator
    does not depend on it.
    """
    if not I.groebner:
        raise ValueError("a Hilbert-function count requires a Groebner basis")
    leads, _, lay = I._computed
    out = list(_hilbert_rec(tuple(leads), lay, {}))
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _krull_degree(I: IdealBasis):
    """Krull dimension and multiplicity of R/I, for a computed basis I,
    read off the Hilbert series N(t)/(1-t)^nvars once N is divided by
    (1 - t), by synthetic division, as often as it divides:
    ``(nvars - times, quotient(1))``, and ``(0, 0)`` for the unit ideal,
    whose numerator is 0."""
    num = hilbert_numerator(I)
    if not any(num):
        return 0, 0
    krull = I.nvars
    while sum(num) == 0:
        num = list(accumulate(num[:-1]))
        krull -= 1
    return krull, sum(num)


def standard_monomial_count(I: IdealBasis):
    """Number of monomials outside in(I), for a Groebner basis I that
    ``buchberger`` or ``saturate`` returned: the colength of an Artinian
    ideal.  A generating set ``IdealBasis(gens)`` raises ``ValueError``.

    Returns ``None`` when the count is infinite (the quotient has positive
    Krull dimension, the zero ideal included) and ``0`` for the unit ideal.
    """
    krull, degree = _krull_degree(I)
    return None if krull else degree


def dim_degree(I: IdealBasis):
    """Projective dimension and degree of Proj of the quotient by I, a
    Groebner basis that ``buchberger`` or ``saturate`` returned; a
    generating set ``IdealBasis(gens)`` raises ``ValueError``.

    Returns ``(dim, degree)`` with ``dim = None`` (and degree 0) for the
    empty scheme, and ``(nvars - 1, 1)``, all of P^n, for the zero ideal.
    The degree of a zero-dimensional scheme is the stable value of its
    Hilbert function, so saturation is not required first.
    """
    krull, degree = _krull_degree(I)
    return (krull - 1, degree) if krull > 0 else (None, 0)
