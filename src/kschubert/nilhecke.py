"""The small-torus affine K-nilHecke ring.

Elements are finite sums over affine Weyl group elements with coefficients
in the localized ring, in one of three bases:

* ``loc``: group elements u with Q(T) coefficients and the twisted product
  (p u)(q v) = p (u.q) uv, where u acts at level zero;
* ``t``: the basis T_x built from T_i = (1 - e^{alpha_i})^{-1} (s_i - 1),
  which satisfy T_i^2 = -T_i and the braid relations;
* ``y``: the idempotent basis y_x built from y_i = 1 + T_i.

The change-of-basis data are the b and e coefficient matrices

    y_w = sum_u b_{w,u} u,        w = sum_u e_{w,u} y_u,

mutually inverse.  b rows are computed by incremental y-products (with the
closed subword sum kept as an independent oracle) and e rows by a left
recursion peeling one letter at a time (with the closed subword sum over
Demazure products as the oracle).  e entries are genuinely polynomial and
are stored as group-algebra elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from kschubert.ring import GroupAlgebraElement, RationalFunction
from kschubert.rootsys import CartanDatum, Coroot, level_zero_root
from kschubert.weyl import (
    AffineWeylElement,
    ReducedWord,
    aff_multiply,
    affine_simple,
    coset_translation,
    demazure_extend,
    identity,
    is_grassmannian,
    length,
    lower_interval,
    reduced_word,
    reflection_roots,
    translation,
    weyl_act,
)

LOC = "localization"
TBASIS = "t"
YBASIS = "y"


class ShapeViolationError(AssertionError):
    """A projected ideal-sheaf class fails its characterizing shape."""


@dataclass
class KElement:
    """Basis-tagged finite sum over affine Weyl elements; zero coefficients
    are dropped on construction.  Treat instances as immutable."""

    datum: CartanDatum
    basis: str
    terms: dict[AffineWeylElement, RationalFunction] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {x: c for x, c in self.terms.items() if c}

    def __eq__(self, other):
        return (
            isinstance(other, KElement)
            and self.datum == other.datum
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def coefficient(self, x: AffineWeylElement) -> RationalFunction:
        return self.terms.get(x, RationalFunction.zero(self.datum))

    def __repr__(self):
        basis_symbol = {LOC: "", TBASIS: "T_", YBASIS: "y_"}[self.basis]
        body = " + ".join(
            f"({c!r})*{basis_symbol}{x!r}" for x, c in sorted(self.terms.items(), key=lambda t: (length(t[0]), repr(t[0])))
        )
        return f"KElement[{self.basis}]({body or '0'})"


def kel_scalar(datum: CartanDatum, value, basis: str = LOC) -> KElement:
    rf = value if isinstance(value, RationalFunction) else RationalFunction.from_gae(
        datum, GroupAlgebraElement.one(datum.rank) * value
    )
    key = identity(datum)
    return KElement(datum, basis, {key: rf})


def kel_add(a: KElement, b: KElement) -> KElement:
    if a.basis != b.basis or a.datum != b.datum:
        raise ValueError("basis or datum mismatch")
    terms = dict(a.terms)
    for x, c in b.terms.items():
        terms[x] = terms[x] + c if x in terms else c
    return KElement(a.datum, a.basis, terms)


def kel_scale(a: KElement, scalar) -> KElement:
    return KElement(a.datum, a.basis, {x: c * scalar for x, c in a.terms.items()})


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
    i = reduced_word(x)[0]
    rest = aff_multiply(affine_simple(x.datum, i), x)
    return k_mul(y_element(x.datum, i), y_in_loc(rest))


@lru_cache(maxsize=None)
def t_in_loc(x: AffineWeylElement) -> KElement:
    """T_x in the localization basis, along a reduced word of x."""
    if x.is_identity:
        return kel_scalar(x.datum, 1)
    i = reduced_word(x)[0]
    rest = aff_multiply(affine_simple(x.datum, i), x)
    return k_mul(t_element(x.datum, i), t_in_loc(rest))


@lru_cache(maxsize=None)
def e_row(x: AffineWeylElement) -> dict:
    """The e-row of x: coefficients of x in the y-basis, as group-algebra
    elements.  Computed by peeling a left descent i off x = s_i u:

        e_{s_i u, v} = s_i(e_{u,v}) + (1 - e^{alpha_i}) s_i(e_{u, s_i v})
                                                      if s_i v < v,
        e_{s_i u, v} = e^{alpha_i} s_i(e_{u,v})       if s_i v > v.
    """
    datum = x.datum
    if x.is_identity:
        return {x: GroupAlgebraElement.one(datum.rank)}
    i = reduced_word(x)[0]
    s = affine_simple(datum, i)
    row_u = e_row(aff_multiply(s, x))
    alpha = level_zero_root(datum, i)
    e_alpha = GroupAlgebraElement.monomial(alpha)
    one_minus = GroupAlgebraElement.one(datum.rank) - e_alpha
    candidates = set(row_u) | {aff_multiply(s, v) for v in row_u}
    out: dict[AffineWeylElement, GroupAlgebraElement] = {}
    for v in candidates:
        sv = aff_multiply(s, v)
        if length(sv) < length(v):
            val = GroupAlgebraElement.zero(datum.rank)
            if v in row_u:
                val = val + row_u[v].act(s.wmat)
            if sv in row_u:
                val = val + one_minus * row_u[sv].act(s.wmat)
        else:
            if v not in row_u:
                continue
            val = e_alpha * row_u[v].act(s.wmat)
        if val:
            out[v] = val
    return out


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


def _group_by_coset(datum: CartanDatum, row: dict) -> dict:
    """Sum row entries over cosets x W, keyed by the coroot coordinate of the
    unique translation in each coset."""
    out: dict[Coroot, object] = {}
    for v, c in row.items():
        key = coset_translation(v)
        out[key] = out[key] + c if key in out else c
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def b_cosets(x: AffineWeylElement) -> dict:
    return _group_by_coset(x.datum, y_in_loc(x).terms)


@lru_cache(maxsize=None)
def e_cosets(x: AffineWeylElement) -> dict:
    return _group_by_coset(x.datum, e_row(x))


# Basis conversion -------------------------------------------------------------


def basis_convert(a: KElement, target: str) -> KElement:
    if target not in (LOC, TBASIS, YBASIS):
        raise ValueError(f"unknown basis {target!r}")
    if a.basis == target:
        return KElement(a.datum, target, dict(a.terms))
    route = {
        (YBASIS, LOC): _y_to_loc,
        (LOC, YBASIS): _loc_to_y,
        (YBASIS, TBASIS): _y_to_t,
        (TBASIS, YBASIS): _t_to_y,
    }
    if (a.basis, target) in route:
        return route[(a.basis, target)](a)
    middle = YBASIS
    return basis_convert(basis_convert(a, middle), target)


def _y_to_loc(a: KElement) -> KElement:
    out: dict[AffineWeylElement, RationalFunction] = {}
    for w, c in a.terms.items():
        for v, b in y_in_loc(w).terms.items():
            val = c * b
            out[v] = out[v] + val if v in out else val
    return KElement(a.datum, LOC, out)


def _loc_to_y(a: KElement) -> KElement:
    out: dict[AffineWeylElement, RationalFunction] = {}
    for u, c in a.terms.items():
        for v, e in e_row(u).items():
            val = c * e
            out[v] = out[v] + val if v in out else val
    return KElement(a.datum, YBASIS, out)


def _y_to_t(a: KElement) -> KElement:
    # y_w = sum_{v <= w} T_v
    out: dict[AffineWeylElement, RationalFunction] = {}
    for w, c in a.terms.items():
        for v in lower_interval(w):
            out[v] = out[v] + c if v in out else c
    return KElement(a.datum, TBASIS, out)


def _t_to_y(a: KElement) -> KElement:
    # Moebius inversion: T_w = sum_{v <= w} (-1)^{l(w)-l(v)} y_v
    out: dict[AffineWeylElement, RationalFunction] = {}
    for w, c in a.terms.items():
        lw = length(w)
        for v in lower_interval(w):
            val = c * (1 if (lw - length(v)) % 2 == 0 else -1)
            out[v] = out[v] + val if v in out else val
    return KElement(a.datum, YBASIS, out)


# Projection to the translation part and the Schubert-class images -------------


def kappa(a: KElement) -> KElement:
    """Left Q(T)-linear projection sending the group element t_lam w (w in the
    finite Weyl group) to t_lam.  In our (w, lam) coordinates that is
    w t_lam = t_{w lam} w |-> t_{w lam}."""
    if a.basis != LOC:
        a = basis_convert(a, LOC)
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
    out = basis_convert(kappa(t_in_loc(w)), TBASIS)
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
    return basis_convert(kappa(y_in_loc(w)), TBASIS)
