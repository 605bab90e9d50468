"""The small-torus affine K-nilHecke ring, as the rows the engine reads.

An element of the ring is a finite sum over affine Weyl group elements with
coefficients in the localized ring Q(T): in the localization basis, group
elements u with the twisted product (p u)(q v) = p (u.q) uv, where u acts at
level zero; or in the basis T_x built from T_i = (1 - e^{alpha_i})^{-1}
(s_i - 1), which satisfy T_i^2 = -T_i and the braid relations, with the
idempotents y_i = 1 + T_i.  No whole element is stored.  Every public value
is a read-only {key: value} map, one per row the engine reads, and the
memoized ones are the memo values themselves:

* ``loc_row(x)``: y_x in the localization basis;
* ``b_lift(x, y_side)``: kappa(y_x), or kappa(T_x), over one denominator,
  and ``b_cosets(x)``, its y side divided per entry;
* ``e_row(x)`` and ``t_row(u)``: x in the y-basis and u in the T-basis
  (``y_expansion``);
* ``translation_cosets(mu, y)``: the coset row of t_mu y_y;
* ``k_class(w)`` and ``l_class(w)``: k_w = kappa(T_w) and l_w = kappa(y_w)
  in the T-basis, w's ``b_lift`` times the T-rows of its translations,
  summed with ``ring.combine`` as the product sums its rows.

The change-of-basis data are the b and e coefficient matrices

    y_w = sum_u b_{w,u} u,        w = sum_u e_{w,u} y_u,

mutually inverse.  Each side has one memoized scatter kernel on codes
(``weyl.Code``, the tuple (finite index, translation)), a loop over the
steps of ``WeylGroup.walk``, which peels the smallest left descent i off
x = s_i u down to a row it holds; a step makes one pass over the row of
u.  A kernel memoizes only the row a call returns, and its base rows, not
the prefixes the loop passes, so a later walk stops at the nearest row
some call handed out.  Only the public rows turn codes into elements.

b side: the kernel ``_loc_row`` builds y_x in the localization basis, the
b-row of x, which ``loc_row`` divides and ``bcoeff`` prints.  Projected,
it builds the image under kappa of y_x or T_x onto translations
(t_lam w -> t_lam for finite w) on translations alone, up to |W| times
shorter; ``b_lift`` reads that.  The b entries are the only rational
data, and the kernel never divides: a row is packed numerators N_u over
one running denominator D.  Write
1/(1 - e^{alpha_i}) = n_i/(1 - e^{beta_i}), beta_i = +-alpha_i positive,
and s_i(D) = eps D' with eps a signed monomial (``WeylAction.roots``).  A
step takes D to (1 - e^{beta_i}) lcm(D, D') and sends N u to
N (-e^{alpha_i} n_i, or -n_i) (lcm/D) at u and s_i(N) n_i eps^{-1}
(lcm/D') at s_i u, or at the translation in its coset.  ``loc_row`` divides
a full row once, as one flat accumulator, into canonical entries;
``b_lift(x, y_side)``, read by the product (y side) for every pair with x
first, by ``b_cosets`` and by the classes, divides the projected row
jointly, down to the lcm D_x of its entries.

e side: the kernel ``_y_row`` builds the y-expansion of x . y_start, or
x . T_start in the T-basis.  From the identity it is the e row, or the
T-row (``y_expansion(x, y_side)``); from y w0, for Grassmannian y (w0 the
longest finite element), it is x . y_y . y_{w0}, whose row has one entry
per coset, at the coset maximum v, which ``translation_cosets(mu, y)``
keys by the coset minimum v w0 for x = t_mu.  The product reads only these
rows: s_i y_{w0} = y_{w0} for finite s_i, so kappa(y_y) y_{w0} =
y_y y_{w0}, and the rows of t_mu y_y y_{w0} carry the whole y-side sum of
the formula.  e entries are polynomial, kept as plain packed dicts under
one coordinate bound per row (max|gamma| more per letter), in the frame of
x: entry v is w^{-1}(c_{x,v}), w the finite part of x, so a step copies
entries instead of applying s_i, and e^{alpha_i} becomes a shift by
gamma = w^{-1}(alpha_i).  A public row wraps its entries and moves them
back; the rows of translations need no move.  The T side moves the diagonal
factor e^{alpha_i} of a step from the ascents to the descents.  A walk of
more than ``WALK_LIMIT`` letters is refused before any row is built.

The subword sums, the word products and the two-basis elements that the
tests compare both kernels against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from kschubert.ring import (
    GroupAlgebraElement,
    RationalFunction,
    _den_complement,
    _in_range,
    combine,
    divide_jointly,
    mul_add,
)
from kschubert.rootsys import CartanDatum, Coroot, level_zero_root, matvec
from kschubert.weyl import (
    AffineWeylElement,
    Code,
    affine_simple,
    is_grassmannian,
    translation,
    weyl_group,
)


class ShapeViolationError(AssertionError):
    """A projected ideal-sheaf class fails its characterizing shape."""


WALK_LIMIT = 1000  # letters the e kernel peels in one walk


class WalkLimitError(ValueError):
    """An e row whose walk down to a known row is longer than WALK_LIMIT."""


class _Kernel:
    """Per-datum state of both kernels, built on first use: the group (whose
    ``walk`` and ``left`` step codes and whose ``left_roots`` give descents
    and e shifts), the b-side data of each letter i (the action of s_i's
    finite part, beta_i, n_i and the T- and y-side stay factors), the memos
    of e and T rows (``rows``, (packed row, bound) keyed by (x code, start
    code, y_side): the identity row of each start and each row a call
    returned) and of b rows (``loc``, keyed by (x code, y_side, cosets): the
    base rows of the full y side and both projected sides and each row a
    call returned), and the element of each code (``elements``) and each coset
    maximum's minimum (``minima``) that a public row returns."""

    __slots__ = ("datum", "group", "letters", "one", "w0", "rows", "loc", "elements", "minima")

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
        self.rows: dict[tuple[Code, Code, bool], tuple[dict[Code, dict[int, int]], int]] = {}
        base = GroupAlgebraElement.one(datum.rank)
        bases = ((True, False, self.one), (True, True, self.one[1]), (False, True, self.one[1]))
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
    """``loc_row`` undivided, keyed by codes, or with ``cosets`` its image
    under kappa keyed by translations, which ``b_lift`` reads: D (root ->
    multiplicity) and key -> N_u, entry u being N_u / D.
    kappa(s_i t_lam w) = kappa(s_i t_lam) for finite w, so a projected row
    keys s_i t_lam by the translation in its coset.  Walks down to the first
    row it holds (``WeylGroup.walk``), then builds upward in a loop, and
    memoizes the row it returns, not the prefixes."""
    group, memo, rank = kernel.group, kernel.loc, kernel.datum.rank
    x, steps = group.walk(x, lambda u: (u, y_side, cosets) in memo)
    den, nums = memo[x, y_side, cosets]
    for i, x in steps:
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
def loc_row(x: AffineWeylElement) -> MappingProxyType:
    """y_x in the localization basis, the b-row of x, read-only.  From
    {id: 1}, peeling the smallest left descent i off x = s_i u:
    y_i = c0 + c1 s_i with c1 = 1/(1 - e^{alpha_i}), c0 = -e^{alpha_i} c1,
    so p u |-> c0 p u + c1 s_i(p) s_i u.  ``_loc_row`` keeps the row over a
    running denominator (module notes); it is divided once, through
    ``combine``."""
    kernel = _kernel(x.datum)
    den, nums = _loc_row(kernel, (x.index, x.trans), True, False)
    one = {0: GroupAlgebraElement.one(x.datum.rank)}
    rows = combine(x.datum, (tuple(sorted(den.items())), one), lambda _: nums).items()
    return MappingProxyType({kernel.element(u): f for u, f in rows})


def _y_row(kernel: _Kernel, x: Code, start: Code, y_side: bool) -> tuple[dict, int]:
    """The y-basis (``y_side``) or T-basis coefficients of x . y_start, or
    x . T_start, in the frame of x (module notes): code -> {packed key:
    coefficient}, and the row's bound.  Walks down to a row it holds or to
    the identity, whose row is {start: 1}, refuses a walk of more than
    ``WALK_LIMIT`` letters, then builds upward, and memoizes the identity row
    and the row it returns, not the prefixes."""
    rows, group, one = kernel.rows, kernel.group, kernel.one
    u, steps = group.walk(x, lambda u: u == one or (u, start, y_side) in rows, WALK_LIMIT + 1)
    if len(steps) > WALK_LIMIT:
        length = group.code_length(x)
        raise WalkLimitError(f"the e kernel walks at most {WALK_LIMIT} letters, and x of length {length} needs more")
    row, bound = rows.setdefault((u, start, y_side), ({start: {0: 1}}, 0))
    left_code, descends = group.left_code, group.descends
    for i, x in steps:
        # x = s_i u has finite part s_i w_u: s_i(c) in the frame of u is c in
        # the frame of x, and e^{alpha_i} is e^gamma, gamma = w_x^{-1}(alpha_i).
        gamma, _, step = group.left_roots[i][x[0]]
        bound = _in_range(bound + max(map(abs, gamma)))
        out: dict[Code, dict[int, int]] = {}
        # One pass over the row of u, scattering c_{u,v} to the entries that read it.
        for v, terms in row.items():
            if not descends(i, v):
                # The diagonal, e^gamma c (y side) or c (T side), at v, which
                # no other entry writes to, and (1 - e^gamma) c at s_i v.
                out[v] = {k + step: a for k, a in terms.items()} if y_side else terms
                acc = out.setdefault(left_code(i, v), {})
                get = acc.get
                for k, a in terms.items():
                    acc[k] = get(k, 0) + a
                    acc[k + step] = get(k + step, 0) - a
            else:
                # The diagonal at a descent: c (y side), or e^gamma c (T side).
                acc = out.setdefault(v, {})
                get = acc.get
                for k, a in terms.items() if y_side else ((k + step, a) for k, a in terms.items()):
                    acc[k] = get(k, 0) + a
        row = {v: terms for v, acc in out.items() if (terms := {k: a for k, a in acc.items() if a})}
    rows[x, start, y_side] = (row, bound)
    return row, bound


def y_expansion(x: AffineWeylElement, y_side: bool) -> MappingProxyType:
    """The y-basis coefficients of x (``y_side``), or its T-basis
    coefficients, as group-algebra elements, read-only.  Computed by peeling
    the smallest left descent i off x = s_i u, from the base row {id: 1} at
    x = id: since s_i = e^{alpha_i} + (1 - e^{alpha_i}) y_i and
    y_i y_v = y_{s_i * v} (Demazure product),

        c_{s_i u, v} = s_i(c_{u,v}) + (1 - e^{alpha_i}) s_i(c_{u, s_i v})
                                                      if s_i v < v,
        c_{s_i u, v} = e^{alpha_i} s_i(c_{u,v})       if s_i v > v;

    since s_i = 1 + (1 - e^{alpha_i}) T_i, T_i T_v = T_{s_i v} for
    s_i v > v and T_i T_v = -T_v for s_i v < v, the T side moves the
    diagonal factor e^{alpha_i} from the second case to the first.  The
    kernel is ``_y_row``, which ``translation_cosets`` starts at a coset
    maximum instead."""
    kernel = _kernel(x.datum)
    action, rank = kernel.group.action[x.index], x.datum.rank
    row, bound = _y_row(kernel, (x.index, x.trans), kernel.one, y_side)
    out = {kernel.element(v): GroupAlgebraElement.from_packed(rank, t, bound) for v, t in row.items()}
    return MappingProxyType({v: c.act(action) for v, c in out.items()} if x.index else out)


@lru_cache(maxsize=None)
def e_row(x: AffineWeylElement) -> MappingProxyType:
    """The e-row of x: coefficients of x in the y-basis, read-only."""
    return y_expansion(x, True)


@lru_cache(maxsize=None)
def t_row(u: AffineWeylElement) -> MappingProxyType:
    """The group element u in the T-basis, read-only: the T side of the e
    kernel, moved back from the frame of u as ``e_row`` is."""
    return y_expansion(u, False)


# Coset rows -------------------------------------------------------------------


@lru_cache(maxsize=None)
def b_lift(x: AffineWeylElement, y_side: bool) -> tuple[tuple, MappingProxyType]:
    """kappa(y_x) (``y_side``) or kappa(T_x) over the lcm D_x of its
    denominators, keyed by coroots, read-only: the kernel's projected row
    divided jointly, down to D_x (``ring.divide_jointly``).  kappa(T_x) is
    zero off the Grassmannian set, where the lift is empty, ((), {}).
    ``pontryagin_constants`` reads the y side for every pair with x first,
    ``b_cosets`` the y side and the class layer both sides, so each
    (x, side) is lifted once."""
    den, nums = _loc_row(_kernel(x.datum), (x.index, x.trans), y_side, True)
    den, nums = divide_jointly(x.datum, den, nums) if nums else ((), {})
    return den, MappingProxyType(nums)


@lru_cache(maxsize=None)
def b_cosets(x: AffineWeylElement) -> MappingProxyType:
    """Sums of the b-row of x over cosets v W, keyed by the coroot
    coordinate of the unique translation in each coset, read-only: the
    coefficients of kappa(y_x) = sum_mu b_{x,[mu]} t_mu, each entry of
    ``b_lift(x, True)`` over D_x reduced."""
    den, nums = b_lift(x, True)
    return MappingProxyType({mu: RationalFunction(x.datum, num, den) for mu, num in nums.items()})


@lru_cache(maxsize=None)
def translation_cosets(mu: Coroot, y: AffineWeylElement) -> MappingProxyType:
    """The coset row E_{mu,y} of t_mu y_y, for Grassmannian y, keyed by the
    Grassmannian element z of each coset, read-only: the row the product
    formula reads for every mu of x's b coset sums, read by the coroot mu
    without building t_mu.  It is the y-expansion of
    t_mu y_{y w0} = t_mu y_y y_{w0}, whose row holds one entry per coset, at
    the coset maximum v, whose coset minimum is z = v w0, so no full row is
    built.  At y = id these are the coset sums
    e_{t_mu,[z]} = sum over v in z W of e_{t_mu,v}.  Since w y_{w0} = y_{w0}
    for finite w, t_mu y_y y_{w0} = sum_nu b_{y,[nu]} t_{mu+nu} y_{w0}: the
    row is sum_nu b_{y,[nu]} E_{mu+nu,id}, the y-side sum of the product
    formula done once.  A translation's finite part is the identity, so the
    row needs no move back from the frame of t_mu.  Each z is built once
    per code."""
    if not is_grassmannian(y):
        raise ValueError(f"{y!r} is not an affine Grassmannian element")
    kernel = _kernel(y.datum)
    minima, out, rank = kernel.minima, {}, y.datum.rank
    row, bound = _y_row(kernel, (0, mu), kernel.times_w0((y.index, y.trans)), True)
    for v, terms in row.items():
        z = minima.get(v)
        if z is None:
            z = minima[v] = kernel.element(kernel.times_w0(v))
        out[z] = GroupAlgebraElement.from_packed(rank, terms, bound)
    return MappingProxyType(out)


# The Schubert-class images ----------------------------------------------------


def _class(w: AffineWeylElement, y_side: bool) -> MappingProxyType:
    """kappa(y_w) (``y_side``) or kappa(T_w) in the T-basis, for Grassmannian
    w, read-only: the coefficients of w's projected b row over one
    denominator (``b_lift``) times the T-rows of their translations, summed
    by ``ring.combine`` as the product sums its rows."""
    if not is_grassmannian(w):
        raise ValueError(f"{w!r} is not an affine Grassmannian element")
    datum = w.datum
    return MappingProxyType(combine(datum, b_lift(w, y_side), lambda mu: t_row(translation(datum, mu))))


@lru_cache(maxsize=None)
def k_class(w: AffineWeylElement) -> MappingProxyType:
    """kappa(T_w) for Grassmannian w, expanded in the T-basis.  The result is
    checked against its characterizing shape: leading coefficient 1 on T_w,
    every other basis element outside the Grassmannian set, all coefficients
    polynomial."""
    out = _class(w, False)
    lead = out.get(w)
    if lead != RationalFunction.one(w.datum):
        raise ShapeViolationError(f"leading coefficient of {w!r} is {lead!r}, not 1")
    for x, c in out.items():
        if x != w and is_grassmannian(x):
            raise ShapeViolationError(
                f"unexpected Grassmannian element {x!r} in the support"
            )
        c.to_polynomial()  # raises NonPolynomialError on failure
    return out


@lru_cache(maxsize=None)
def l_class(w: AffineWeylElement) -> MappingProxyType:
    """kappa(y_w) for Grassmannian w, expanded in the T-basis; equals the sum
    of k_class(v) over Grassmannian v <= w."""
    return _class(w, True)
