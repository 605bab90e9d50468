"""The small-torus affine K-nilHecke ring.

Elements are finite sums over affine Weyl group elements with coefficients
in the localized ring, tagged with one of two bases:

* ``loc``: group elements u with Q(T) coefficients and the twisted product
  (p u)(q v) = p (u.q) uv, where u acts at level zero;
* ``t``: the basis T_x built from T_i = (1 - e^{alpha_i})^{-1} (s_i - 1),
  which satisfy T_i^2 = -T_i and the braid relations.

Products are taken in ``loc``; the only basis change is localization -> T
(``t_expansion``), through the idempotent basis y_x built from
y_i = 1 + T_i, never stored: u = sum_v e_{u,v} y_v and
y_v = sum_{w <= v} T_w.  The memoized ``t_row(u)`` is u in the T-basis, and
``t_expansion`` sums rational multiples of those rows with ``ring.combine``.

The change-of-basis data are the b and e coefficient matrices

    y_w = sum_u b_{w,u} u,        w = sum_u e_{w,u} y_u,

mutually inverse.  Each side has one memoized scatter kernel on codes
(``weyl.Code``, the tuple (finite index, translation)) that peels the
smallest left descent i (read off one root, ``WeylGroup.descends``) off
x = s_i u and makes one pass over the row of u; only the public rows turn
codes into elements.

b side: ``loc_row(x, y_side, cosets)`` is y_x, or T_x, in the localization
basis; the y-row is the b-row of x.  With ``cosets`` it is the image under
the projection kappa onto translations (t_lam w -> t_lam for finite w),
built on translations alone, up to |W| times shorter: ``b_cosets(x)`` and
the class layer read these, only ``bcoeff`` and the tests a full row.  The
b entries are the only rational data, and the kernel (``_loc_row``, a loop)
never divides: a row is packed numerators N_u over one running denominator
D.  Write 1/(1 - e^{alpha_i}) = n_i/(1 - e^{beta_i}), beta_i = +-alpha_i
positive, and s_i(D) = eps D' with eps a signed monomial
(``WeylAction.roots``).  A step takes D to (1 - e^{beta_i}) lcm(D, D') and
sends N u to N (-e^{alpha_i} n_i, or -n_i) (lcm/D) at u and
s_i(N) n_i eps^{-1} (lcm/D') at s_i u, or at the translation in its coset.
A public row is divided once, as one flat accumulator, into canonical
entries; ``b_lift(x)``, read by the product for every pair with x first,
divides the projected y-row jointly, down to the lcm D_x of its entries.

e side: ``y_expansion(x, start)`` is the y-expansion of x . y_start: the
e row from the identity; from y w0, for Grassmannian y (w0 the longest
finite element), x . y_y . y_{w0}, whose row has one entry per coset, at
the coset maximum v, which ``e_cosets(x, y)`` keys by the coset minimum
v w0.  The product reads only these rows, for x a translation t_mu
(``translation_cosets(mu, y)``): s_i y_{w0} = y_{w0} for finite s_i, so
kappa(y_y) y_{w0} = y_y y_{w0}, and the rows of t_mu y_y y_{w0} carry the
whole y-side sum of the formula.  e entries are polynomial, scattered into
raw packed dicts, and kept in the frame of x: entry v is w^{-1}(c_{x,v}),
w the finite part of x, so a step copies entries instead of applying s_i,
and e^{alpha_i} becomes a shift by w^{-1}(alpha_i).  A public row moves
back once per entry; the product's rows, of translations, need no move.

The subword sums and the word products that the tests compare both kernels
against live in ``tests/oracles.py``.  Rows and coset sums are returned
read-only, since they are the memoized values themselves.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from kschubert.ring import (
    COORD_LIMIT,
    GroupAlgebraElement,
    RationalFunction,
    _den_complement,
    combine,
    divide_jointly,
    exact_product_bound,
    lift,
    mul_add,
)
from kschubert.rootsys import CartanDatum, Coroot, Frozen, level_zero_root, matvec
from kschubert.weyl import (
    AffineWeylElement,
    Code,
    affine_simple,
    identity,
    is_grassmannian,
    length,
    lower_interval,
    weyl_group,
)

LOC = "localization"
TBASIS = "t"


class ShapeViolationError(AssertionError):
    """A projected ideal-sheaf class fails its characterizing shape."""


class KElement(Frozen):
    """Basis-tagged finite sum over affine Weyl elements; zero coefficients
    are dropped on construction.  Instances are immutable, terms included,
    because the memos hand the same instance to every caller; equal ones
    share datum, basis and terms."""

    __slots__ = ("datum", "basis", "terms")

    def __init__(self, datum: CartanDatum, basis: str, terms: Mapping[AffineWeylElement, RationalFunction] | None = None):
        terms = {x: c for x, c in terms.items() if c} if terms else {}
        self._fill(datum, basis, MappingProxyType(terms))

    def __eq__(self, other):
        if other.__class__ is not KElement:
            return NotImplemented
        return (self.datum, self.basis, self.terms) == (other.datum, other.basis, other.terms)

    def coefficient(self, x: AffineWeylElement) -> RationalFunction:
        return self.terms.get(x, RationalFunction.zero(self.datum))

    def __repr__(self):
        basis_symbol = {LOC: "", TBASIS: "T_"}[self.basis]
        body = " + ".join(
            f"({c!r})*{basis_symbol}{x!r}" for x, c in sorted(self.terms.items(), key=lambda t: (length(t[0]), repr(t[0])))
        )
        return f"KElement[{self.basis}]({body or '0'})"


class _Kernel:
    """Per-datum state of both kernels, built on first use: the group (whose
    ``left`` steps codes and whose ``left_roots`` give descents and e
    shifts), the b-side data of each letter i (the action of s_i's finite
    part, beta_i, n_i and the T- and y-side stay factors), the memos of e
    rows, coset rows and b prefixes (``loc``, keyed by (x code, y_side,
    cosets)), and the element of each code that a public row returns."""

    __slots__ = ("datum", "group", "letters", "one", "w0", "rows", "cosets", "loc", "elements", "minima")

    def __init__(self, datum: CartanDatum):
        group = weyl_group(datum)
        self.datum, self.group = datum, group
        letters = []
        for i in range(datum.rank + 1):
            alpha = level_zero_root(datum, i)
            action = group.action[affine_simple(datum, i).index]
            e_alpha = GroupAlgebraElement.monomial(alpha)
            # 1/(1 - e^alpha) = n/(1 - e^beta): n = 1, or -e^beta for alpha = -beta.
            beta = alpha if alpha in datum.positive_root_set else tuple(-c for c in alpha)
            n = GroupAlgebraElement.one(datum.rank) if beta == alpha else GroupAlgebraElement.monomial(beta, -1)
            letters.append((action, beta, n, (-n, -(e_alpha * n))))
        self.letters = tuple(letters)
        self.one = (0, (0,) * datum.rank)
        self.w0 = group.longest
        self.rows: dict[tuple[Code, Code], dict[Code, GroupAlgebraElement]] = {}
        self.cosets: dict[tuple[Code, Code], MappingProxyType] = {}
        base = GroupAlgebraElement.one(datum.rank)
        bases = ((y, c, self.one[1] if c else self.one) for y in (False, True) for c in (False, True))
        self.loc: dict[tuple[Code, bool, bool], tuple[dict, dict]] = {(self.one, y, c): ({}, {k: base}) for y, c, k in bases}
        self.elements: dict[Code, AffineWeylElement] = {}
        self.minima: dict[Code, AffineWeylElement] = {}

    def element(self, code: Code) -> AffineWeylElement:
        x = self.elements.get(code)
        if x is None:
            x = self.elements[code] = AffineWeylElement(self.datum, *code)
        return x

    def times_w0(self, code: Code) -> Code:
        """The code of x w0 for x of code ``code``."""
        k, lam = code
        group = self.group
        return group.product[k][self.w0], matvec(group.cmat[group.inverse[self.w0]], lam)


@lru_cache(maxsize=None)
def _kernel(datum: CartanDatum) -> _Kernel:
    return _Kernel(datum)


def _loc_row(kernel: _Kernel, x: Code, y_side: bool, cosets: bool) -> tuple[dict, dict]:
    """``loc_row`` undivided, keyed by codes, or by translations with
    ``cosets``: D (root -> multiplicity) and key -> N_u, entry u being
    N_u / D.  Walks the left-descent chain of x down to the first memoized
    prefix, then builds upward in a loop, memoizing every prefix."""
    group, memo, rank, chain = kernel.group, kernel.loc, kernel.datum.rank, []
    while (x, y_side, cosets) not in memo:
        i = group.code_descent(x)
        chain.append((i, x))
        x = group.left_code(i, x)
    den, nums = memo[x, y_side, cosets]
    for i, x in reversed(chain):
        action, beta, n, stays = kernel.letters[i]
        image, moved = {}, n  # s_i(D) = eps D'; eps^{-1} joins the moved factor
        for root, mult in den.items():
            pos, flipped = action.roots[root]
            image[pos] = mult
            if flipped:
                moved = moved * GroupAlgebraElement.monomial(tuple(mult * c for c in pos), (-1) ** mult)
        lcm = {r: max(den.get(r, 0), image.get(r, 0)) for r in {**den, **image}}
        stay = stays[y_side] * _den_complement(kernel.datum, lcm, den)
        moved = moved * _den_complement(kernel.datum, lcm, image)
        lcm[beta] = lcm.get(beta, 0) + 1
        out, bound = {}, 0
        for u, num in nums.items():
            bound = mul_add(out.setdefault(u, {}), num, stay, bound)
            su = group.left_code(i, (0, u) if cosets else u)
            su = matvec(group.cmat[su[0]], su[1]) if cosets else su
            bound = mul_add(out.setdefault(su, {}), num.act(action), moved, bound)
        den, nums = lcm, {u: GroupAlgebraElement.from_packed(rank, acc, bound) for u, acc in out.items() if acc}
        memo[x, y_side, cosets] = (den, nums)
    return den, nums


@lru_cache(maxsize=None)
def loc_row(x: AffineWeylElement, y_side: bool, cosets: bool) -> MappingProxyType:
    """y_x (``y_side``) or T_x in the localization basis, read-only; with
    ``cosets``, its image under kappa, keyed by translations.  From {id: 1},
    peeling the smallest left descent i off x = s_i u: y_i = c0 + c1 s_i and
    T_i = -c1 + c1 s_i with c1 = 1/(1 - e^{alpha_i}), c0 = -e^{alpha_i} c1,
    so p u |-> c0 p u (or -c1 p u) + c1 s_i(p) s_i u; kappa(s_i t_lam w) =
    kappa(s_i t_lam) for finite w, so a projected row keys s_i t_lam by the
    translation in its coset.  ``_loc_row`` keeps the row over a running
    denominator (module notes); it is divided once, through ``combine``."""
    kernel = _kernel(x.datum)
    den, nums = _loc_row(kernel, (x.index, x.trans), y_side, cosets)
    one = {0: GroupAlgebraElement.one(x.datum.rank)}
    rows = combine(x.datum, (tuple(sorted(den.items())), one), lambda _: nums).items()
    return MappingProxyType({kernel.element((0, u) if cosets else u): f for u, f in rows})


def _y_row(kernel: _Kernel, x: Code, start: Code) -> dict:
    """The y-basis coefficients of x . y_start on codes in the frame of x
    (module notes), memoized in ``kernel.rows``; one frame per letter of x."""
    key = (x, start)
    row = kernel.rows.get(key)
    if row is not None:
        return row
    group = kernel.group
    if x == kernel.one:
        row = kernel.rows[key] = {start: GroupAlgebraElement.one(kernel.datum.rank)}
        return row
    i = group.code_descent(x)
    # x = s_i u has finite part s_i w_u: s_i(c) in the frame of u is c in the
    # frame of x, and e^{alpha_i} is e^gamma, gamma = w_x^{-1}(alpha_i).
    gamma, _, step = group.left_roots[i][x[0]]
    reach, left_code, descends = max(map(abs, gamma)), group.left_code, group.descends
    # Raw packed terms per entry, wrapped once at the end under one bound.
    out: dict[Code, dict[int, int]] = {}
    bound = 0
    # One pass over the row of u, scattering c_{u,v} to the entries that read it.
    for v, c in _y_row(kernel, left_code(i, x), start).items():
        terms = c.terms
        if descends(i, v):
            acc = out.setdefault(v, {})
            get = acc.get
            for k, a in terms.items():
                acc[k] = get(k, 0) + a
            bound = max(bound, c.bound)
        else:
            shifted = reach + c.bound
            if shifted > COORD_LIMIT:
                shifted = exact_product_bound(GroupAlgebraElement.monomial(gamma), c)
            bound = max(bound, shifted)
            # e^gamma c at v, which no other entry writes to, and
            # (1 - e^gamma) c at s_i v.
            out[v] = {k + step: a for k, a in terms.items()}
            acc = out.setdefault(left_code(i, v), {})
            get = acc.get
            for k, a in terms.items():
                acc[k] = get(k, 0) + a
                acc[k + step] = get(k + step, 0) - a
    row = kernel.rows[key] = {}
    rank = kernel.datum.rank
    for v, acc in out.items():
        terms = {k: a for k, a in acc.items() if a}
        if terms:
            row[v] = GroupAlgebraElement.from_packed(rank, terms, bound)
    return row


def y_expansion(x: AffineWeylElement, start: AffineWeylElement) -> MappingProxyType:
    """The y-basis coefficients of x . y_start, as group-algebra elements,
    read-only.  Computed by peeling the smallest left descent i off
    x = s_i u, from the base row {start: 1} at x = id: since
    s_i = e^{alpha_i} + (1 - e^{alpha_i}) y_i and y_i y_v = y_{s_i * v}
    (Demazure product),

        c_{s_i u, v} = s_i(c_{u,v}) + (1 - e^{alpha_i}) s_i(c_{u, s_i v})
                                                      if s_i v < v,
        c_{s_i u, v} = e^{alpha_i} s_i(c_{u,v})       if s_i v > v.

    Started at the identity this is the e-row of x; started at a coset
    maximum, such as the longest finite element w0, every row lives on coset
    maxima, because y_v y_{w0} = y_{max vW}.  The kernel is ``_y_row``."""
    kernel = _kernel(x.datum)
    action = kernel.group.action[x.index]
    row = _y_row(kernel, (x.index, x.trans), (start.index, start.trans))
    return MappingProxyType({kernel.element(v): c.act(action) if x.index else c for v, c in row.items()})


@lru_cache(maxsize=None)
def e_row(x: AffineWeylElement) -> MappingProxyType:
    """The e-row of x: coefficients of x in the y-basis, read-only."""
    return y_expansion(x, identity(x.datum))


# Coset sums -------------------------------------------------------------------


def b_cosets(x: AffineWeylElement) -> MappingProxyType:
    """Sums of the b-row of x over cosets v W, read from kappa(y_x) and keyed
    by the coroot coordinate of the unique translation in each coset: the
    coefficients of kappa(y_x) = sum_mu b_{x,[mu]} t_mu.  Re-keyed from
    ``loc_row``'s memo on every call, not held a second time."""
    return MappingProxyType({t.trans: c for t, c in loc_row(x, True, True).items()})


@lru_cache(maxsize=None)
def b_lift(x: AffineWeylElement) -> tuple[tuple, MappingProxyType]:
    """``ring.lift(x.datum, b_cosets(x))``, read-only, read off the kernel's
    running denominator by one joint division.  ``pontryagin_constants``
    reads it for every pair with x first, so each x is lifted once."""
    den, nums = divide_jointly(x.datum, *_loc_row(_kernel(x.datum), (x.index, x.trans), True, True))
    return den, MappingProxyType(nums)


def _coset_row(kernel: _Kernel, x: Code, y: AffineWeylElement) -> MappingProxyType:
    """``e_cosets`` for x given by its code, memoized in ``kernel.cosets``."""
    key = (x, (y.index, y.trans))
    row = kernel.cosets.get(key)
    if row is None:
        if not is_grassmannian(y):
            raise ValueError(f"{y!r} is not an affine Grassmannian element")
        minima, action, out = kernel.minima, kernel.group.action[x[0]], {}
        for v, c in _y_row(kernel, x, kernel.times_w0(key[1])).items():
            z = minima.get(v)
            if z is None:
                z = minima[v] = kernel.element(kernel.times_w0(v))
            out[z] = c.act(action) if x[0] else c  # back from the frame of x
        row = kernel.cosets[key] = MappingProxyType(out)
    return row


def e_cosets(x: AffineWeylElement, y: AffineWeylElement) -> MappingProxyType:
    """Coset sums of the y-expansion of x . y_y, for Grassmannian y, keyed by
    the Grassmannian element z of each coset, read-only.  Read from the
    y-expansion of x . y_{y w0} = x . y_y . y_{w0}: its row holds one entry
    per coset, at the coset maximum v, whose coset minimum is v w0, so no
    full row is built.  At y = id these are the coset sums
    e_{x,[z]} = sum over v in z W of e_{x,v}.  At a translation x = t_mu,
    since w y_{w0} = y_{w0} for finite w, t_mu y_y y_{w0} =
    sum_nu b_{y,[nu]} t_{mu+nu} y_{w0}: the row is
    sum_nu b_{y,[nu]} e_cosets(t_{mu+nu}, id), the y-side sum of the
    product formula done once.  Memoized by (x code, y code); each z is
    built once per code."""
    return _coset_row(_kernel(x.datum), (x.index, x.trans), y)


def translation_cosets(mu: Coroot, y: AffineWeylElement) -> MappingProxyType:
    """``e_cosets(t_mu, y)``, read by the coroot mu without building t_mu:
    the row E_{mu,y} that the product formula reads for every mu of x's
    b coset sums."""
    return _coset_row(_kernel(y.datum), (0, mu), y)


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
