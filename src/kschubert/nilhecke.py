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
y_v = sum_{w <= v} T_w.

The change-of-basis data are the b and e coefficient matrices

    y_w = sum_u b_{w,u} u,        w = sum_u e_{w,u} y_u,

mutually inverse.  b rows are computed by incremental y-products (with the
closed subword sum kept as an independent oracle).  e rows come from one
kernel, ``y_expansion(x, start)``, the y-expansion of x . y_start by a left
recursion peeling the smallest left descent at each step: started at the
identity it gives the full e row (with the closed subword sum over Demazure
products as the oracle).  Started at y w0 for Grassmannian y (w0 the longest
finite element) it gives x . y_y . y_{w0}, whose row has one entry per coset,
at the coset maximum v; ``e_cosets(x, y)`` keys that entry by the coset
minimum v w0.  The product formula reads only these coset rows, for x a
translation t_mu and y its second factor: s_i y_{w0} = y_{w0} for finite
s_i, so kappa(y_y) y_{w0} = y_y y_{w0}, and the rows of t_mu y_y y_{w0}
carry the whole y-side sum of the formula.  Full rows are built only for
``ecoeff``, the class layer and the oracles.  e entries are genuinely
polynomial and are stored as group-algebra elements.  Rows and coset sums
are returned read-only, since they are the memoized values themselves.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from kschubert.ring import GroupAlgebraElement, RationalFunction
from kschubert.rootsys import CartanDatum, level_zero_root
from kschubert.weyl import (
    AffineWeylElement,
    ReducedWord,
    aff_multiply,
    affine_simple,
    coset_translation,
    demazure_extend,
    finite_element,
    identity,
    is_grassmannian,
    left_descent,
    length,
    lower_interval,
    reduced_word,
    reflection_roots,
    translation,
    weyl_act,
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


def kel_scalar(datum: CartanDatum, value) -> KElement:
    rf = value if isinstance(value, RationalFunction) else RationalFunction.from_gae(
        datum, GroupAlgebraElement.one(datum.rank) * value
    )
    return KElement(datum, LOC, {identity(datum): rf})


def kel_add(a: KElement, b: KElement) -> KElement:
    if a.basis != b.basis or a.datum != b.datum:
        raise ValueError("basis or datum mismatch")
    terms = dict(a.terms)
    for x, c in b.terms.items():
        terms[x] = terms[x] + c if x in terms else c
    return KElement(a.datum, a.basis, terms)


def k_mul(a: KElement, b: KElement) -> KElement:
    """Twisted product in the localization basis: (p u)(q v) = p (u.q) uv."""
    if a.basis != LOC or b.basis != LOC:
        raise ValueError("k_mul needs both factors in the localization basis")
    if a.datum != b.datum:
        raise ValueError("mixed ambient root systems")
    out: dict[AffineWeylElement, RationalFunction] = {}
    for u, p in a.terms.items():
        for v, q in b.terms.items():
            uv = aff_multiply(u, v)
            val = p * weyl_act(u, q)
            out[uv] = out[uv] + val if uv in out else val
    return KElement(a.datum, LOC, out)


@lru_cache(maxsize=None)
def t_element(datum: CartanDatum, i: int) -> KElement:
    """T_i = (1 - e^{alpha_i})^{-1}(s_i - 1) in the localization basis, with
    alpha_i the level-zero root (alpha_0 = -theta)."""
    alpha = level_zero_root(datum, i)
    inv = RationalFunction.inverse_one_minus_exp(datum, alpha)
    return KElement(datum, LOC, {affine_simple(datum, i): inv, identity(datum): -inv})


@lru_cache(maxsize=None)
def y_element(datum: CartanDatum, i: int) -> KElement:
    """y_i = 1 + T_i."""
    return kel_add(kel_scalar(datum, 1), t_element(datum, i))


@lru_cache(maxsize=None)
def y_in_loc(x: AffineWeylElement) -> KElement:
    """y_x expanded in the localization basis; the coefficients are the b-row
    of x.  Built incrementally along a reduced word (the y_i satisfy the
    braid relations, so the word does not matter)."""
    if x.is_identity:
        return kel_scalar(x.datum, 1)
    i = left_descent(x)
    rest = aff_multiply(affine_simple(x.datum, i), x)
    return k_mul(y_element(x.datum, i), y_in_loc(rest))


@lru_cache(maxsize=None)
def t_in_loc(x: AffineWeylElement) -> KElement:
    """T_x in the localization basis, along a reduced word of x."""
    if x.is_identity:
        return kel_scalar(x.datum, 1)
    i = left_descent(x)
    rest = aff_multiply(affine_simple(x.datum, i), x)
    return k_mul(t_element(x.datum, i), t_in_loc(rest))


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
    if x.is_identity:
        return MappingProxyType({start: GroupAlgebraElement.one(datum.rank)})
    i = left_descent(x)
    s = affine_simple(datum, i)
    e_alpha = GroupAlgebraElement.monomial(level_zero_root(datum, i))
    one_minus = GroupAlgebraElement.one(datum.rank) - e_alpha
    out: dict[AffineWeylElement, GroupAlgebraElement] = {}
    # One pass over the row of u, scattering c_{u,v} to the entries that read it.
    for v, c in y_expansion(aff_multiply(s, x), start).items():
        sc = c.act(s.wmat)
        sv = aff_multiply(s, v)
        if length(sv) < length(v):
            out[v] = out[v] + sc if v in out else sc
        else:
            out[v] = e_alpha * sc  # no other entry writes to v when s_i v > v
            val = one_minus * sc
            out[sv] = out[sv] + val if sv in out else val
    return MappingProxyType({v: c for v, c in out.items() if c})


@lru_cache(maxsize=None)
def e_row(x: AffineWeylElement) -> MappingProxyType:
    """The e-row of x: coefficients of x in the y-basis, read-only."""
    return y_expansion(x, identity(x.datum))


# Closed subword-sum oracles --------------------------------------------------


def b_row_subword(x: AffineWeylElement, word: ReducedWord | None = None) -> dict:
    """b-row of x by the closed sum over epsilon in {0,1}^m: the epsilon-th
    summand is the product over k of the prefix-conjugated factor
    (-e^{-beta_k})^{eps_k} / (1 - e^{-beta_k}), the prefix being the product
    of the *selected* reflections before position k, and the summand lands on
    the group element given by the full selected product."""
    datum = x.datum
    if word is None:
        word = reduced_word(x)
    out: dict[AffineWeylElement, RationalFunction] = {}

    def go(k: int, prefix: AffineWeylElement, acc: RationalFunction) -> None:
        if k == len(word):
            out[prefix] = out[prefix] + acc if prefix in out else acc
            return
        beta = level_zero_root(datum, word[k])
        base = RationalFunction.inverse_one_minus_exp(
            datum, tuple(-b for b in beta)
        )
        f0 = weyl_act(prefix, base)
        go(k + 1, prefix, acc * f0)
        unit = GroupAlgebraElement.monomial(tuple(-b for b in beta), -1)
        f1 = weyl_act(prefix, base * unit)
        go(k + 1, aff_multiply(prefix, affine_simple(datum, word[k])), acc * f1)

    go(0, identity(datum), RationalFunction.one(datum))
    return {v: c for v, c in out.items() if c}


def e_row_subword(x: AffineWeylElement, word: ReducedWord | None = None) -> dict:
    """e-row of x by the closed sum over epsilon in {0,1}^m with factors
    (1-eps_k) e^{gamma_k} + eps_k (1 - e^{gamma_k}), gamma_k the reflection
    roots of the full word; the summand lands on the Demazure product of the
    selected letters."""
    datum = x.datum
    if word is None:
        word = reduced_word(x)
    gammas = reflection_roots(datum, word)
    keep = [GroupAlgebraElement.monomial(g) for g in gammas]
    use = [GroupAlgebraElement.one(datum.rank) - k for k in keep]
    out: dict[AffineWeylElement, GroupAlgebraElement] = {}

    def go(k: int, dem: AffineWeylElement, acc: GroupAlgebraElement) -> None:
        if k == len(word):
            out[dem] = out[dem] + acc if dem in out else acc
            return
        go(k + 1, dem, acc * keep[k])
        go(k + 1, demazure_extend(dem, word[k]), acc * use[k])

    go(0, identity(datum), GroupAlgebraElement.one(datum.rank))
    return {v: c for v, c in out.items() if c}


# Coset sums -------------------------------------------------------------------


@lru_cache(maxsize=None)
def b_cosets(x: AffineWeylElement) -> MappingProxyType:
    """Sums of the b-row of x over cosets v W, read from kappa(y_x) and keyed
    by the coroot coordinate of the unique translation in each coset: the
    coefficients of kappa(y_x) = sum_mu b_{x,[mu]} t_mu."""
    return MappingProxyType({t.trans: c for t, c in kappa(y_in_loc(x)).terms.items()})


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
    w0 = finite_element(x.datum, weyl_group(x.datum).longest)
    row = y_expansion(x, aff_multiply(y, w0))
    return MappingProxyType({aff_multiply(v, w0): c for v, c in row.items()})


# Expansion in the T-basis ----------------------------------------------------


def t_expansion(a: KElement) -> KElement:
    """a, given in the localization basis, expanded in the T-basis: each
    group element is u = sum_v e_{u,v} y_v (its e-row), and
    y_v = sum_{w <= v} T_w."""
    if a.basis != LOC:
        raise ValueError("t_expansion needs its argument in the localization basis")
    ys: dict[AffineWeylElement, RationalFunction] = {}
    for u, c in a.terms.items():
        for v, e in e_row(u).items():
            val = c * e
            ys[v] = ys[v] + val if v in ys else val
    out: dict[AffineWeylElement, RationalFunction] = {}
    for v, c in ys.items():
        if c:
            for w in lower_interval(v):
                out[w] = out[w] + c if w in out else c
    return KElement(a.datum, TBASIS, out)


# Projection to the translation part and the Schubert-class images -------------


def kappa(a: KElement) -> KElement:
    """Left Q(T)-linear projection sending the group element t_lam w (w in the
    finite Weyl group) to t_lam.  In our (w, lam) coordinates that is
    w t_lam = t_{w lam} w |-> t_{w lam}; a is in the localization basis."""
    if a.basis != LOC:
        raise ValueError("kappa needs its argument in the localization basis")
    out: dict[AffineWeylElement, RationalFunction] = {}
    for u, c in a.terms.items():
        t = translation(a.datum, coset_translation(u))
        out[t] = out[t] + c if t in out else c
    return KElement(a.datum, LOC, out)


@lru_cache(maxsize=None)
def k_class(w: AffineWeylElement) -> KElement:
    """kappa(T_w) for Grassmannian w, expanded in the T-basis.  The result is
    checked against its characterizing shape: leading coefficient 1 on T_w,
    every other basis element outside the Grassmannian set, all coefficients
    polynomial."""
    if not is_grassmannian(w):
        raise ValueError(f"{w!r} is not an affine Grassmannian element")
    out = t_expansion(kappa(t_in_loc(w)))
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
    return t_expansion(kappa(y_in_loc(w)))
