"""The small-torus affine K-nilHecke ring.

Elements are finite sums over affine Weyl group elements with coefficients
in the localized ring, tagged with one of two bases:

* ``loc``: group elements u with Q(T) coefficients and the twisted product
  (p u)(q v) = p (u.q) uv, where u acts at level zero;
* ``t``: the basis T_x built from T_i = (1 - e^{alpha_i})^{-1} (s_i - 1),
  which satisfy T_i^2 = -T_i and the braid relations.

Products are taken in ``loc``; the only basis change is one way,
localization -> T (``t_expansion``), through the idempotent basis y_x built
from y_i = 1 + T_i, which is never stored: u = sum_v e_{u,v} y_v and
y_v = sum_{w <= v} T_w.  The memoized ``t_row(u)`` is u in the T-basis, the
e row of u spread over lower intervals, and ``t_expansion`` sums rational
multiples of those rows with ``ring.combine``, so a class is reduced once
per T-coefficient rather than once per term.

The change-of-basis data are the b and e coefficient matrices

    y_w = sum_u b_{w,u} u,        w = sum_u e_{w,u} y_u,

mutually inverse.  Each side has one memoized scatter kernel that peels the
smallest left descent i off x = s_i u and makes one pass over the row of u.

b side: ``loc_row(x, y_side, cosets)`` is y_x, or T_x, in the localization
basis; the y-row is the b-row of x.  With ``cosets`` it is the image under
the projection kappa onto translations (t_lam w -> t_lam for finite w),
built by the same recursion on translations alone, so no full row is
built and the row is up to |W| times shorter.  ``b_cosets(x)`` reads
kappa(y_x), the class layer reads kappa(y_w) and kappa(T_w), and only
``bcoeff`` and the tests read a full row.

e side: ``y_expansion(x, start)`` is the y-expansion of x . y_start.
Started at the identity it gives the full e row.  Started at y w0 for
Grassmannian y (w0 the longest finite element) it gives
x . y_y . y_{w0}, whose row has one entry per coset, at the coset maximum
v; ``e_cosets(x, y)`` keys that entry by the coset minimum v w0.  The
product formula reads only these coset rows, for x a translation t_mu and
y its second factor: s_i y_{w0} = y_{w0} for finite s_i, so
kappa(y_y) y_{w0} = y_y y_{w0}, and the rows of t_mu y_y y_{w0} carry the
whole y-side sum of the formula.  Full e rows are built only for
``ecoeff``, the T-rows that the class layer and the classical oracle read,
and the tests.  e entries are genuinely polynomial and are stored as
group-algebra elements; the kernel scatters into raw packed dicts and
wraps each entry once.

``b_lift(x)`` memoizes the b coset sums of x lifted to their common
denominator D_x, which the product reads for every pair with x first.

The closed subword sums and the word products in the localization basis
that the tests compare both kernels against live in ``tests/oracles.py``.
Rows and coset sums are returned read-only, since they are the memoized
values themselves.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from kschubert.ring import (
    COORD_LIMIT,
    GroupAlgebraElement,
    RationalFunction,
    combine,
    exact_product_bound,
    lift,
    pack,
)
from kschubert.rootsys import CartanDatum, level_zero_root
from kschubert.weyl import (
    AffineWeylElement,
    aff_multiply,
    affine_simple,
    coset_translation,
    finite_elements,
    identity,
    is_grassmannian,
    left_descent,
    length,
    lower_interval,
    translation,
    weyl_group,
)

LOC = "localization"
TBASIS = "t"


class ShapeViolationError(AssertionError):
    """A projected ideal-sheaf class fails its characterizing shape."""


@dataclass(frozen=True)
class KElement:
    """Basis-tagged finite sum over affine Weyl elements; zero coefficients
    are dropped on construction.  Instances are immutable, terms included,
    because the memos hand the same instance to every caller."""

    datum: CartanDatum
    basis: str
    terms: Mapping[AffineWeylElement, RationalFunction] = field(default_factory=dict)

    def __post_init__(self):
        terms = {x: c for x, c in self.terms.items() if c}
        object.__setattr__(self, "terms", MappingProxyType(terms))

    def coefficient(self, x: AffineWeylElement) -> RationalFunction:
        return self.terms.get(x, RationalFunction.zero(self.datum))

    def __repr__(self):
        basis_symbol = {LOC: "", TBASIS: "T_"}[self.basis]
        body = " + ".join(
            f"({c!r})*{basis_symbol}{x!r}" for x, c in sorted(self.terms.items(), key=lambda t: (length(t[0]), repr(t[0])))
        )
        return f"KElement[{self.basis}]({body or '0'})"


@lru_cache(maxsize=None)
def loc_row(x: AffineWeylElement, y_side: bool, cosets: bool) -> MappingProxyType:
    """y_x (``y_side``) or T_x in the localization basis, read-only; with
    ``cosets``, its image under kappa, keyed by translations.  Computed by
    peeling the smallest left descent i off x = s_i u, from the base row
    {id: 1} at x = id: y_i = c0 + c1 s_i and T_i = -c1 + c1 s_i with
    c1 = 1/(1 - e^{alpha_i}) and c0 = -e^{alpha_i} c1, so

        p u  |->  c0 p u (or -c1 p u)  +  c1 s_i(p) s_i u.

    kappa is left Q(T)-linear and kappa(s_i t_lam w) = kappa(s_i t_lam) for
    finite w, so a projected row follows the same recursion with the key
    s_i t_lam replaced by the translation in its coset."""
    datum = x.datum
    if x.is_identity:
        return MappingProxyType({x: RationalFunction.one(datum)})
    i = left_descent(x)
    s = affine_simple(datum, i)
    action = weyl_group(datum).action[s.index]
    alpha = level_zero_root(datum, i)
    c1 = RationalFunction.inverse_one_minus_exp(datum, alpha)
    stay = c1 * GroupAlgebraElement.monomial(alpha, -1) if y_side else -c1
    out: dict[AffineWeylElement, RationalFunction] = {}
    for u, p in loc_row(aff_multiply(s, x), y_side, cosets).items():
        val = stay * p
        out[u] = out[u] + val if u in out else val
        su = aff_multiply(s, u)
        if cosets:
            su = translation(datum, coset_translation(su))
        val = c1 * p.act(action)
        out[su] = out[su] + val if su in out else val
    return MappingProxyType({u: c for u, c in out.items() if c})


@lru_cache(maxsize=None)
def y_expansion(x: AffineWeylElement, start: AffineWeylElement) -> MappingProxyType:
    """The y-basis coefficients of x . y_start, as group-algebra elements.
    Computed by peeling the smallest left descent i off x = s_i u, from the
    base row {start: 1} at x = id: since s_i = e^{alpha_i} + (1 - e^{alpha_i})
    y_i and y_i y_v = y_{s_i * v} (Demazure product),

        c_{s_i u, v} = s_i(c_{u,v}) + (1 - e^{alpha_i}) s_i(c_{u, s_i v})
                                                      if s_i v < v,
        c_{s_i u, v} = e^{alpha_i} s_i(c_{u,v})       if s_i v > v.

    Started at the identity this is the e-row of x; started at a coset
    maximum, such as the longest finite element w0, every row lives on coset
    maxima, because y_v y_{w0} = y_{max vW}."""
    datum = x.datum
    rank = datum.rank
    if x.is_identity:
        return MappingProxyType({start: GroupAlgebraElement.one(rank)})
    i = left_descent(x)
    s = affine_simple(datum, i)
    action = weyl_group(datum).action[s.index]
    alpha = level_zero_root(datum, i)
    e_alpha, step = GroupAlgebraElement.monomial(alpha), pack(alpha)
    # Raw packed terms per entry, wrapped once at the end under one bound.
    out: dict[AffineWeylElement, dict[int, int]] = {}
    bound = 0
    # One pass over the row of u, scattering c_{u,v} to the entries that read it.
    for v, c in y_expansion(aff_multiply(s, x), start).items():
        sc = c.act(action)
        terms = sc.terms
        sv = aff_multiply(s, v)
        if length(sv) < length(v):
            acc = out.setdefault(v, {})
            get = acc.get
            for k, a in terms.items():
                acc[k] = get(k, 0) + a
            bound = max(bound, sc.bound)
        else:
            shifted = e_alpha.bound + sc.bound
            bound = max(bound, shifted if shifted <= COORD_LIMIT else exact_product_bound(e_alpha, sc))
            # e^{alpha_i} s_i(c) at v, which no other entry writes to, and
            # (1 - e^{alpha_i}) s_i(c) at s_i v.
            out[v] = {k + step: a for k, a in terms.items()}
            acc = out.setdefault(sv, {})
            get = acc.get
            for k, a in terms.items():
                acc[k] = get(k, 0) + a
                acc[k + step] = get(k + step, 0) - a
    wrapped = {}
    for v, acc in out.items():
        terms = {k: a for k, a in acc.items() if a}
        if terms:
            wrapped[v] = GroupAlgebraElement.from_packed(rank, terms, bound)
    return MappingProxyType(wrapped)


@lru_cache(maxsize=None)
def e_row(x: AffineWeylElement) -> MappingProxyType:
    """The e-row of x: coefficients of x in the y-basis, read-only."""
    return y_expansion(x, identity(x.datum))


# Coset sums -------------------------------------------------------------------


@lru_cache(maxsize=None)
def b_cosets(x: AffineWeylElement) -> MappingProxyType:
    """Sums of the b-row of x over cosets v W, read from kappa(y_x) and keyed
    by the coroot coordinate of the unique translation in each coset: the
    coefficients of kappa(y_x) = sum_mu b_{x,[mu]} t_mu."""
    return MappingProxyType({t.trans: c for t, c in loc_row(x, True, True).items()})


@lru_cache(maxsize=None)
def b_lift(x: AffineWeylElement) -> tuple[tuple, MappingProxyType]:
    """The b coset sums of x lifted to their lcm denominator D_x
    (``ring.lift``): D_x and the numerators keyed like ``b_cosets(x)``,
    read-only.  ``pontryagin_constants`` reads it for every pair with x
    first, so each x is lifted once."""
    den, nums = lift(x.datum, b_cosets(x))
    return den, MappingProxyType(nums)


@lru_cache(maxsize=None)
def e_cosets(x: AffineWeylElement, y: AffineWeylElement) -> MappingProxyType:
    """Coset sums of the y-expansion of x . y_y, for Grassmannian y, keyed by
    the Grassmannian element z of each coset.  Read from the y-expansion of
    x . y_{y w0} = x . y_y . y_{w0}: its row holds one entry per coset, at the
    coset maximum v, whose coset minimum is v w0, so no full row is built.
    At y = id these are the coset sums e_{x,[z]} = sum over v in z W of
    e_{x,v}.  At a translation x = t_mu, since w y_{w0} = y_{w0} for finite
    w, t_mu y_y y_{w0} = sum_nu b_{y,[nu]} t_{mu+nu} y_{w0}: the row is
    sum_nu b_{y,[nu]} e_cosets(t_{mu+nu}, id), the y-side sum of the
    product formula done once."""
    if not is_grassmannian(y):
        raise ValueError(f"{y!r} is not an affine Grassmannian element")
    w0 = finite_elements(x.datum)[weyl_group(x.datum).longest]
    row = y_expansion(x, aff_multiply(y, w0))
    return MappingProxyType({aff_multiply(v, w0): c for v, c in row.items()})


# Expansion in the T-basis ----------------------------------------------------


@lru_cache(maxsize=None)
def t_row(u: AffineWeylElement) -> MappingProxyType:
    """The group element u in the T-basis, read-only: u = sum_v e_{u,v} y_v
    and y_v = sum_{w <= v} T_w, so the coefficient of T_w is the upper sum
    of e_{u,v} over v >= w, a group-algebra element."""
    out: dict[AffineWeylElement, GroupAlgebraElement] = {}
    for v, e in e_row(u).items():
        for w in lower_interval(v):
            out[w] = out[w] + e if w in out else e
    return MappingProxyType({w: c for w, c in out.items() if c})


def t_expansion(a: KElement) -> KElement:
    """a, given in the localization basis, expanded in the T-basis: the sum
    of its coefficients times the T-rows of its group elements."""
    if a.basis != LOC:
        raise ValueError("t_expansion needs its argument in the localization basis")
    return KElement(a.datum, TBASIS, combine(a.datum, lift(a.datum, a.terms), t_row))


# The Schubert-class images ----------------------------------------------------


@lru_cache(maxsize=None)
def k_class(w: AffineWeylElement) -> KElement:
    """kappa(T_w) for Grassmannian w, expanded in the T-basis.  The result is
    checked against its characterizing shape: leading coefficient 1 on T_w,
    every other basis element outside the Grassmannian set, all coefficients
    polynomial."""
    if not is_grassmannian(w):
        raise ValueError(f"{w!r} is not an affine Grassmannian element")
    out = t_expansion(KElement(w.datum, LOC, loc_row(w, False, True)))
    lead = out.coefficient(w)
    if lead != RationalFunction.one(w.datum):
        raise ShapeViolationError(f"leading coefficient of {w!r} is {lead!r}, not 1")
    for x, c in out.terms.items():
        if x != w and is_grassmannian(x):
            raise ShapeViolationError(
                f"unexpected Grassmannian element {x!r} in the support"
            )
        c.to_polynomial()  # raises NonPolynomialError on failure
    return out


@lru_cache(maxsize=None)
def l_class(w: AffineWeylElement) -> KElement:
    """kappa(y_w) for Grassmannian w, expanded in the T-basis; equals the sum
    of k_class(v) over Grassmannian v <= w."""
    if not is_grassmannian(w):
        raise ValueError(f"{w!r} is not an affine Grassmannian element")
    return t_expansion(KElement(w.datum, LOC, loc_row(w, True, True)))
