"""Test-only helpers, kept out of the library because nothing in it calls
them: second computations of Weyl-group data, of the b and e rows, of row
coset sums, of the closed product formula and its convolution, and of
the classical constants by the rational solve, which the tests compare
the library against, the per-entry sum of rational multiples of rows that
``ring.combine`` is compared against, and small conveniences for writing
the tests (Cartan matrices of finite types, word evaluation, the pairing, scaling, 1/(1 - e^lam), T-sums
back in the localization basis, expanded denominators, the translation
law, skewed localization rows); Bruhat order by the lifting
property, which lower intervals are compared against; the tuple-keyed
group algebra that the packed one in ``kschubert.ring`` is compared
against; the matrix route for affine Weyl elements that the index
route of ``kschubert.weyl`` is compared against, with the full-product
search for the Weyl group's tables; and the elimination over Fractions
that the fraction-free Cartan check of ``kschubert.rootsys`` is compared
against."""

import operator
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from kschubert.constants import (
    StructureConstantTable,
    SingularSystemError,
    _finite_localization_row,
    _support_warnings,
    _triangular_solve,
    element_sort_key,
    pontryagin_constants,
)
from kschubert.nilhecke import LOC, KElement, b_cosets, e_cosets
from kschubert.ring import (
    GroupAlgebraElement,
    RationalFunction,
    format_gae,
    lift,
    mul_add,
    unpack,
)
from kschubert.rootsys import Matrix, Weight, identity_matrix, level_zero_root, matvec
from kschubert.weyl import (
    AffineWeylElement,
    aff_multiply,
    affine_simple,
    coset_min,
    coset_translation,
    finite_element,
    finite_elements,
    identity,
    is_grassmannian,
    length,
    reduced_word,
    reflection_roots,
    translation,
    weyl_group,
)


def weyl_act(x, f):
    """Level-zero action of an affine element on a ring value: the finite
    part acts on exponents, the translation part acts trivially.  Values are
    read-only, so the identity hands f back itself."""
    if not x.index:
        return f
    action = weyl_group(x.datum).action[x.index]
    return rf_act(f, action) if isinstance(f, RationalFunction) else f.act(action)


def rf_act(f, action):
    """Image of a ``RationalFunction`` under a finite Weyl group element
    (``ring.WeylAction``).  Denominator roots map to roots; factors sent to
    negative roots are renormalized via
    (1 - e^{-beta}) = (-e^{-beta})(1 - e^beta), the unit being absorbed into
    the numerator.  The library's b kernel applies the same rule to its
    running denominator without dividing (``nilhecke._loc_row``)."""
    num = f.num.act(action)
    den: dict[Weight, int] = {}
    for root, mult in f.den:
        pos, flipped = action.roots[root]
        den[pos] = den.get(pos, 0) + mult
        if flipped:
            num = num * GroupAlgebraElement.monomial(tuple(mult * x for x in pos), (-1) ** mult)
    return RationalFunction(f.datum, num, den)


def rf_inverse_one_minus_exp(datum, lam):
    """1 / (1 - e^lam) for lam a root of either sign, normalized so the
    stored denominator root is positive:
    1/(1 - e^{-beta}) = -e^beta / (1 - e^beta)."""
    if lam in datum.positive_root_set:
        return RationalFunction(datum, GroupAlgebraElement.one(datum.rank), ((lam, 1),), reduce=False)
    pos = tuple(-x for x in lam)
    if pos not in datum.positive_root_set:
        raise ValueError(f"{lam} is not a root of {datum.label}")
    return RationalFunction(datum, GroupAlgebraElement.monomial(pos, -1), ((pos, 1),), reduce=False)


def demazure_extend(x, i):
    """x s_i if that is longer than x, else x: one step of a Demazure product."""
    xs = aff_multiply(x, affine_simple(x.datum, i))
    return xs if length(xs) > length(x) else x


def evaluate_word(datum, letters):
    """The product s_{i_1} ... s_{i_k} of a word in the affine alphabet."""
    out = identity(datum)
    for i in letters:
        out = aff_multiply(out, affine_simple(datum, i))
    return out


def demazure_product(datum, letters):
    """0-Hecke product: each generator either increases length or is absorbed."""
    out = identity(datum)
    for i in letters:
        out = demazure_extend(out, i)
    return out


def type_a(n):
    """The Cartan matrix of type A_n."""
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


# Finite types as build_root_system specs, with the order of each Weyl group
# from the classification.
FINITE_TYPES = {
    "A1": ("A1", 2),
    "A2": ("A2", 6),
    "A3": ("A3", 24),
    "A4": (type_a(4), 120),
    "A5": (type_a(5), 720),
    "B2": ([[2, -2], [-1, 2]], 8),
    "C2": ([[2, -1], [-2, 2]], 8),
    "G2": ([[2, -1], [-3, 2]], 12),
    "B3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], 48),
    "C3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 48),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 192),
    "D5": ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]], 1920),
    "F4": ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 1152),
}


def pair(coroot, weight):
    """Canonical pairing <mu^vee, lambda>; a dot product in the package's bases."""
    return sum(c * w for c, w in zip(coroot, weight))


def kel_scale(a, scalar):
    """A nilHecke element with every coefficient multiplied by ``scalar``."""
    return KElement(a.datum, a.basis, {x: c * scalar for x, c in a.terms.items()})


def t_sum_in_loc(a):
    """A T-basis element sum_v c_v T_v back in the localization basis: the
    inverse of ``nilhecke.t_expansion``."""
    out = KElement(a.datum, LOC)
    for v, c in a.terms.items():
        out = kel_add(out, kel_scale(t_in_loc(v), c))
    return out


def den_gae(f):
    """The denominator of a ``RationalFunction`` expanded as a polynomial."""
    out = GroupAlgebraElement.one(f.datum.rank)
    for root, mult in f.den:
        factor = GroupAlgebraElement.one(f.datum.rank) - GroupAlgebraElement.monomial(root)
        for _ in range(mult):
            out = out * factor
    return out


def translation_product_check(x, nu):
    """Check O_x . O_{t_nu} = O_{x t_nu} for an antidominant translation t_nu.
    Returns (holds, table)."""
    datum = x.datum
    t = translation(datum, nu)
    if not is_grassmannian(t):
        raise ValueError("t_nu must be an affine Grassmannian element (nu antidominant)")
    table = pontryagin_constants(x, t)
    expected = {aff_multiply(x, t): GroupAlgebraElement.one(datum.rank)}
    return table.entries == expected, table


@lru_cache(maxsize=None)
def bruhat_leq(u, v):
    """Bruhat order via the lifting property, recursing on left descents: the
    oracle that ``weyl.lower_interval`` is compared against."""
    if u == v:
        return True
    if length(u) >= length(v):
        return False
    i = weyl_group(v.datum).code_descent((v.index, v.trans))
    s = affine_simple(u.datum, i)
    sv = aff_multiply(s, v)
    su = aff_multiply(s, u)
    if length(su) < length(u):
        return bruhat_leq(su, sv)
    return bruhat_leq(u, sv)


def finite_coset(x):
    """The coset x W as explicit elements."""
    group = weyl_group(x.datum)
    return [aff_multiply(x, finite_element(x.datum, m)) for m in group.elements]


def reduced_word_by_lengths(x, pick):
    """Greedy left-descent peeling by comparing closed-formula lengths, with
    the ``pick`` (min or max) of the descents at each step: with min, the
    word ``weyl.reduced_word`` finds by one root; with max, a second
    deterministic reduced word, used to check that word-dependent
    computations are in fact word-independent."""
    word = []
    current = x
    while length(current):
        i = pick(
            j
            for j in range(x.datum.rank + 1)
            if length(aff_multiply(affine_simple(x.datum, j), current)) < length(current)
        )
        word.append(i)
        current = aff_multiply(affine_simple(current.datum, i), current)
    return tuple(word)


def coset_sums(row):
    """Sum the entries of a full row over the cosets v W, keyed by the
    minimal element of each coset found by descent (``weyl.coset_min``): the
    reference for ``nilhecke.e_cosets``."""
    out = {}
    for v, c in row.items():
        key = coset_min(v)
        out[key] = out[key] + c if key in out else c
    return {k: c for k, c in out.items() if c}


def translation_convolution_rf(x, y):
    """P(sigma) = sum over mu + nu = sigma of b_{x,[mu]} b_{y,[nu]}, one
    reduced ``RationalFunction`` product and sum at a time: the reference
    for ``constants._translation_convolution``, which forms all of P in one
    ``ring.combine`` over D_x D_y."""
    out = {}
    for mu, bmu in b_cosets(x).items():
        for nu, bnu in b_cosets(y).items():
            sigma = tuple(a + b for a, b in zip(mu, nu))
            val = bmu * bnu
            out[sigma] = out[sigma] + val if sigma in out else val
    return {sigma: v for sigma, v in out.items() if v}


def pontryagin_constants_rf(x, y):
    """The paper's closed coset formula, sum over t1, t2 of
    b_{x,[t1]} b_{y,[t2]} e_{t1 t2,[z]}, with every partial sum a reduced
    ``RationalFunction``.  It is off the engine's path: the reference for
    ``constants.pontryagin_constants``, which folds the y-side sum into the
    coset rows of t_mu y_y and divides once by x's common denominator."""
    if not (is_grassmannian(x) and is_grassmannian(y)):
        raise ValueError("both factors must be affine Grassmannian elements")
    datum = x.datum
    convolution = translation_convolution_rf(x, y)
    raw: dict[AffineWeylElement, RationalFunction] = {}
    for sigma, p in convolution.items():
        for z, egae in e_cosets(translation(datum, sigma), identity(datum)).items():
            val = p * egae
            raw[z] = raw[z] + val if z in raw else val
    entries = {z: c.to_polynomial() for z, c in raw.items() if c}
    return StructureConstantTable(x, y, entries, _support_warnings(x, y, entries))


def classical_k_constants_rf(u, v):
    """The classical finite-type constants by the triangular solve with every
    residual a reduced ``RationalFunction``, each pivot value multiplied by
    the inverse of e_{w,w} = prod (1 - e^{gamma}) over the reflection roots
    of w: the reference for ``constants.classical_k_constants``, which
    solves on polynomials and divides each pivot value exactly."""
    datum = u.datum
    elements = finite_elements(datum)
    row_u, row_v = _finite_localization_row(u), _finite_localization_row(v)
    residual = {
        x: RationalFunction.from_gae(datum, row_u[x] * row_v[x])
        for x in elements
        if x in row_u and x in row_v
    }

    def divide(w, value):
        inverse = RationalFunction.one(datum)
        for gamma in reflection_roots(datum, reduced_word(w)):
            inverse = inverse * rf_inverse_one_minus_exp(datum, gamma)
        return value * inverse

    solved = _triangular_solve(
        residual, sorted(elements, key=element_sort_key), lambda w: w, divide, _finite_localization_row
    )
    if any(residual.values()):
        raise SingularSystemError("nonzero localization residual")
    return {w: c.to_polynomial().flip() for w, c in solved.items() if c}


def skewed_diagonal(rows):
    """Localization rows w -> L[w] made wrong on the diagonal of every
    non-identity w, L[w][w] + 1, which e_{w,w} does not divide: a fault
    that only the classical oracle's exact division sees."""

    def skewed(w):
        row = rows(w)
        return row if w == identity(w.datum) else {**row, w: row[w] + 1}

    return skewed


def combine_per_entry(datum, coeffs, rows):
    """sum over k of coeffs[k] * rows(k) as key -> nonzero RationalFunction,
    one entry at a time: the coefficients lifted to their lcm denominator D,
    one ``mul_add`` per (k, key) into that key's own dict, and each entry
    divided by the factors of D one at a time, root by root in sorted order,
    with the tuple-keyed ``tuple_divide_one_minus_exp``; an entry keeps a
    root's remaining factors at its first failed division.  The reference
    for ``ring.combine``, which accumulates all entries in one flat dict and
    divides them together with one coset grouping per root, and for the
    ``RationalFunction`` reduction, which shares that grouping."""
    den, nums = lift(datum, coeffs)
    raw: dict = {}
    for k, p in nums.items():
        for key, g in rows(k).items():
            mul_add(raw.setdefault(key, {}), p, g)
    out = {}
    for key, terms in raw.items():
        if terms:
            num, kept = reduce_one_factor_at_a_time(datum.rank, terms, den)
            out[key] = RationalFunction(datum, num, kept, reduce=False)
    return out


def reduce_one_factor_at_a_time(rank, terms, den):
    """Packed ``terms`` over the (root, multiplicity) pairs ``den``, divided
    by one factor (1 - e^root) at a time in the tuple-keyed group algebra:
    the numerator as a ``GroupAlgebraElement`` and the pairs left over."""
    num = TupleGroupAlgebraElement(rank, {unpack(k, rank): c for k, c in terms.items()})
    kept = []
    for root, mult in den:
        while mult and (q := tuple_divide_one_minus_exp(num, root)) is not None:
            num, mult = q, mult - 1
        if mult:
            kept.append((root, mult))
    return GroupAlgebraElement(rank, dict(num.terms)), tuple(kept)


# The element-keyed e kernel ------------------------------------------------------
#
# The y-expansion kernel as the library ran it before its rows were keyed by
# codes: one recursion per letter over ``AffineWeylElement`` keys, each step
# through ``aff_multiply`` and ``length``.  The reference for
# ``nilhecke.y_expansion`` and ``nilhecke.e_cosets``.


@lru_cache(maxsize=None)
def y_expansion_by_elements(x, start):
    """The y-basis coefficients of x . y_start, keyed by elements: peel the
    smallest left descent i off x = s_i u, then
    c_{s_i u, v} = s_i(c_{u,v}) + (1 - e^{alpha_i}) s_i(c_{u, s_i v}) if
    s_i v < v and e^{alpha_i} s_i(c_{u,v}) otherwise."""
    datum = x.datum
    if x == identity(x.datum):
        return MappingProxyType({start: GroupAlgebraElement.one(datum.rank)})
    i = weyl_group(x.datum).code_descent((x.index, x.trans))
    s = affine_simple(datum, i)
    action = weyl_group(datum).action[s.index]
    e_alpha = GroupAlgebraElement.monomial(level_zero_root(datum, i))
    out: dict = {}
    for v, c in y_expansion_by_elements(aff_multiply(s, x), start).items():
        sc = c.act(action)
        sv = aff_multiply(s, v)
        if length(sv) < length(v):
            out[v] = out[v] + sc if v in out else sc
        else:
            out[v] = e_alpha * sc
            rest = sc - e_alpha * sc
            out[sv] = out[sv] + rest if sv in out else rest
    return MappingProxyType({v: c for v, c in out.items() if c})


# The full-row route ------------------------------------------------------------
#
# y_x and T_x as word products of the generators y_i and T_i under the
# generic twisted product of the localization basis, and the projection
# kappa of a whole row: the reference for ``nilhecke.loc_row``, which
# scatters one generator at a time and projects as it goes.


def kel_scalar(datum, value):
    """The scalar ``value`` (a ``RationalFunction`` or an int) times the identity."""
    rf = value if isinstance(value, RationalFunction) else RationalFunction.from_gae(
        datum, GroupAlgebraElement.one(datum.rank) * value
    )
    return KElement(datum, LOC, {identity(datum): rf})


def kel_add(a, b):
    if a.basis != b.basis or a.datum != b.datum:
        raise ValueError("basis or datum mismatch")
    terms = dict(a.terms)
    for x, c in b.terms.items():
        terms[x] = terms[x] + c if x in terms else c
    return KElement(a.datum, a.basis, terms)


def k_mul(a, b):
    """Twisted product in the localization basis: (p u)(q v) = p (u.q) uv."""
    if a.basis != LOC or b.basis != LOC:
        raise ValueError("k_mul needs both factors in the localization basis")
    if a.datum != b.datum:
        raise ValueError("mixed ambient root systems")
    out = {}
    for u, p in a.terms.items():
        for v, q in b.terms.items():
            uv = aff_multiply(u, v)
            val = p * weyl_act(u, q)
            out[uv] = out[uv] + val if uv in out else val
    return KElement(a.datum, LOC, out)


@lru_cache(maxsize=None)
def t_element(datum, i):
    """T_i = (1 - e^{alpha_i})^{-1}(s_i - 1) in the localization basis, with
    alpha_i the level-zero root (alpha_0 = -theta)."""
    alpha = level_zero_root(datum, i)
    inv = rf_inverse_one_minus_exp(datum, alpha)
    return KElement(datum, LOC, {affine_simple(datum, i): inv, identity(datum): -inv})


@lru_cache(maxsize=None)
def y_element(datum, i):
    """y_i = 1 + T_i."""
    return kel_add(kel_scalar(datum, 1), t_element(datum, i))


@lru_cache(maxsize=None)
def y_in_loc(x):
    """y_x in the localization basis, the product of the y_i along a reduced
    word of x (the y_i satisfy the braid relations, so the word does not
    matter); its coefficients are the b-row of x."""
    if x == identity(x.datum):
        return kel_scalar(x.datum, 1)
    i = weyl_group(x.datum).code_descent((x.index, x.trans))
    rest = aff_multiply(affine_simple(x.datum, i), x)
    return k_mul(y_element(x.datum, i), y_in_loc(rest))


@lru_cache(maxsize=None)
def t_in_loc(x):
    """T_x in the localization basis, along a reduced word of x."""
    if x == identity(x.datum):
        return kel_scalar(x.datum, 1)
    i = weyl_group(x.datum).code_descent((x.index, x.trans))
    rest = aff_multiply(affine_simple(x.datum, i), x)
    return k_mul(t_element(x.datum, i), t_in_loc(rest))


def kappa(a):
    """Left Q(T)-linear projection sending the group element t_lam w (w in the
    finite Weyl group) to t_lam.  In our (w, lam) coordinates that is
    w t_lam = t_{w lam} w |-> t_{w lam}; a is in the localization basis."""
    if a.basis != LOC:
        raise ValueError("kappa needs its argument in the localization basis")
    out = {}
    for u, c in a.terms.items():
        t = translation(a.datum, coset_translation(u))
        out[t] = out[t] + c if t in out else c
    return KElement(a.datum, LOC, out)


# Closed subword sums ------------------------------------------------------------


def b_row_subword(x, word=None):
    """b-row of x by the closed sum over epsilon in {0,1}^m: the epsilon-th
    summand is the product over k of the prefix-conjugated factor
    (-e^{-beta_k})^{eps_k} / (1 - e^{-beta_k}), the prefix being the product
    of the *selected* reflections before position k, and the summand lands on
    the group element given by the full selected product."""
    datum = x.datum
    if word is None:
        word = reduced_word(x)
    out = {}

    def go(k, prefix, acc):
        if k == len(word):
            out[prefix] = out[prefix] + acc if prefix in out else acc
            return
        beta = level_zero_root(datum, word[k])
        base = rf_inverse_one_minus_exp(
            datum, tuple(-b for b in beta)
        )
        f0 = weyl_act(prefix, base)
        go(k + 1, prefix, acc * f0)
        unit = GroupAlgebraElement.monomial(tuple(-b for b in beta), -1)
        f1 = weyl_act(prefix, base * unit)
        go(k + 1, aff_multiply(prefix, affine_simple(datum, word[k])), acc * f1)

    go(0, identity(datum), RationalFunction.one(datum))
    return {v: c for v, c in out.items() if c}


def e_row_subword(x, word=None):
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
    out = {}

    def go(k, dem, acc):
        if k == len(word):
            out[dem] = out[dem] + acc if dem in out else acc
            return
        go(k + 1, dem, acc * keep[k])
        go(k + 1, demazure_extend(dem, word[k]), acc * use[k])

    go(0, identity(datum), GroupAlgebraElement.one(datum.rank))
    return {v: c for v, c in out.items() if c}


# The tuple-keyed group algebra -------------------------------------------------


class TupleGroupAlgebraElement:
    """The group algebra keyed by weight tuples, as the library stored it
    before weights were packed into integers: the reference for
    ``ring.GroupAlgebraElement``.  ``terms`` is a read-only map weight ->
    coefficient, copied from the mapping given to the constructor.

    Zero coefficients are never stored, so equality is plain map equality.

    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        self.terms = MappingProxyType({w: c for w, c in terms.items() if c} if terms else {})

    @classmethod
    def zero(cls, rank: int) -> "TupleGroupAlgebraElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "TupleGroupAlgebraElement":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, weight: Weight, coeff: int = 1) -> "TupleGroupAlgebraElement":
        return cls(len(weight), {tuple(weight): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = TupleGroupAlgebraElement(self.rank, {(0,) * self.rank: other})
        if not isinstance(other, TupleGroupAlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __add__(self, other) -> "TupleGroupAlgebraElement":
        out = dict(self.terms)
        for w, c in self._coerce(other).terms.items():
            out[w] = out.get(w, 0) + c
        return TupleGroupAlgebraElement(self.rank, out)

    def __neg__(self) -> "TupleGroupAlgebraElement":
        return TupleGroupAlgebraElement(self.rank, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "TupleGroupAlgebraElement":
        if isinstance(other, int):
            return TupleGroupAlgebraElement(
                self.rank, {w: other * c for w, c in self.terms.items()}
            )
        if not isinstance(other, TupleGroupAlgebraElement):
            return NotImplemented
        add = operator.add
        out: dict[Weight, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(map(add, w1, w2))
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
        return TupleGroupAlgebraElement(self.rank, out)

    def _coerce(self, other) -> "TupleGroupAlgebraElement":
        if isinstance(other, int):
            return TupleGroupAlgebraElement(self.rank, {(0,) * self.rank: other})
        if isinstance(other, TupleGroupAlgebraElement):
            if other.rank != self.rank:
                raise ValueError("rank mismatch")
            return other
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def augmentation(self) -> int:
        """Specialization e^lambda -> 1, i.e. the sum of coefficients."""
        return sum(self.terms.values())

    def act(self, matrix: Matrix) -> "TupleGroupAlgebraElement":
        """Apply an invertible lattice map to every exponent."""
        return TupleGroupAlgebraElement(
            self.rank, {matvec(matrix, w): c for w, c in self.terms.items()}
        )

    def flip(self) -> "TupleGroupAlgebraElement":
        """The automorphism e^lambda -> e^{-lambda}."""
        return TupleGroupAlgebraElement(
            self.rank, {tuple(-x for x in w): c for w, c in self.terms.items()}
        )

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"TupleGroupAlgebraElement({format_gae(self)})"


def tuple_divide_one_minus_exp(f: TupleGroupAlgebraElement, beta: Weight):
    """Exact quotient f / (1 - e^beta), or None if it does not divide; the
    reference for ``ring.divide_one_minus_exp``.

    Terms are grouped by coset of the lattice modulo Z*beta; on each coset
    the quotient is the univariate long division of sum c_k x^k by (1 - x),
    whose coefficients are the partial sums from below.  Divisibility means
    every coset sums to zero.
    """
    if not f:
        return f
    j = next(idx for idx, b in enumerate(beta) if b)
    groups: dict[Weight, list[tuple[int, int]]] = {}
    for w, c in f.terms.items():
        k = w[j] // beta[j]
        rep = tuple(a - k * b for a, b in zip(w, beta))
        groups.setdefault(rep, []).append((k, c))
    out: dict[Weight, int] = {}
    for rep, entries in groups.items():
        entries.sort()
        if sum(c for _, c in entries) != 0:
            return None
        running = 0
        for (k, c), (k_next, _) in zip(entries, entries[1:]):
            running += c
            if running:
                for kk in range(k, k_next):
                    out[tuple(a + kk * b for a, b in zip(rep, beta))] = running
    return TupleGroupAlgebraElement(f.rank, out)


# The matrix route ---------------------------------------------------------------
#
# Affine elements as pairs (weight-lattice matrix of w, translation lam), the
# way ``kschubert.weyl`` stored them before finite parts became indices into
# the tabulated group: the reference for its Cayley table, inversion flags,
# coroot actions and ring actions.  Nothing here reads the group's tables.
# The pairing is a W-invariant dot product, so the coroot-lattice matrix of
# w is the transpose of the weight-lattice matrix of w^{-1}.


def matrix_pair(x):
    """x = w t_lam as (matrix of w, lam)."""
    return x.wmat, x.trans


def matrix_simple(datum, i):
    """The affine generator s_i as a pair; s_0 = s_theta t_{-theta^vee}.
    Column j of s_beta is e_j - (beta^vee)_j beta."""
    rank = datum.rank
    if i == 0:
        root, coroot = datum.highest_root, datum.highest_coroot
        trans = tuple(-c for c in coroot)
    else:
        root, coroot = datum.simple_roots[i - 1], datum.simple_coroots[i - 1]
        trans = (0,) * rank
    matrix = tuple(
        tuple(int(r == c) - coroot[c] * root[r] for c in range(rank)) for r in range(rank)
    )
    return matrix, trans


def matmul(a: Matrix, b: Matrix) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in columns) for row in a)


def _transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def weyl_tables_by_matmul(datum):
    """(elements, index, word, inverse, cmat) of ``weyl.WeylGroup`` by a
    breadth-first search that multiplies full matrices, every element by
    every simple reflection, and inverts along each reversed word."""
    gens = [matrix_simple(datum, i)[0] for i in range(1, datum.rank + 1)]
    ident = identity_matrix(datum.rank)
    mats, words, index, right = [ident], [()], {ident: 0}, []
    for k, m in enumerate(mats):  # the list is its own queue
        right.append([])
        for i, g in enumerate(gens):
            image = matmul(m, g)
            if image not in index:
                index[image] = len(mats)
                mats.append(image)
                words.append(words[k] + (i + 1,))
            right[k].append(index[image])

    def fold(letters):
        k = 0
        for i in letters:
            k = right[k][i - 1]
        return k

    inverse = tuple(fold(reversed(w)) for w in words)
    return tuple(mats), index, tuple(words), inverse, tuple(_transpose(mats[j]) for j in inverse)


def fraction_inverse(cartan):
    """(det A, A^{-1}) by Gauss-Jordan over Fractions without row swaps:
    each pivot is the ratio of consecutive leading principal minors, and the
    pivots multiply to det A.  None when a pivot is not positive."""
    rank = len(cartan)
    aug = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(rank)] for i, row in enumerate(cartan)]
    det = Fraction(1)
    for k in range(rank):
        pivot = aug[k][k]
        if pivot <= 0:
            return None
        det *= pivot
        aug[k] = [a / pivot for a in aug[k]]
        for r in range(rank):
            if r != k and aug[r][k] != 0:
                factor = aug[r][k]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[k])]
    return det, tuple(tuple(row[rank:]) for row in aug)


def _matrix_inverse(w: Matrix) -> Matrix:
    """w^{-1} as the last power of w before the identity (W is finite)."""
    ident = identity_matrix(len(w))
    inv = ident
    while matmul(inv, w) != ident:
        inv = matmul(inv, w)
    return inv


def matrix_multiply(x, y):
    """(w t_lam)(v t_mu) = wv t_{v^{-1} lam + mu} on pairs."""
    (w, lam), (v, mu) = x, y
    shifted = matvec(_transpose(v), lam)
    return matmul(w, v), tuple(a + b for a, b in zip(shifted, mu))


def matrix_length(datum, x):
    """sum over positive roots beta of |<lam, beta> + [w(beta) < 0]|."""
    w, lam = x
    return sum(
        abs(pair(lam, beta) + (matvec(w, beta) not in datum.positive_root_set))
        for beta in datum.positive_roots
    )


def matrix_coset_translation(x):
    """w lam, the translation in the coset of x = w t_lam."""
    w, lam = x
    return matvec(_transpose(_matrix_inverse(w)), lam)


def matrix_rf_act(f, matrix):
    """``rf_act`` on a weight-lattice matrix: every exponent and
    every denominator root through ``matvec``, a factor sent to a negative
    root renormalized by (1 - e^{-beta}) = (-e^{-beta})(1 - e^beta)."""
    num = GroupAlgebraElement(
        f.datum.rank, {matvec(matrix, w): c for w, c in f.num.sorted_terms()}
    )
    den: dict[Weight, int] = {}
    for root, mult in f.den:
        image = matvec(matrix, root)
        if image in f.datum.positive_root_set:
            den[image] = den.get(image, 0) + mult
        else:
            pos = tuple(-x for x in image)
            den[pos] = den.get(pos, 0) + mult
            num = num * GroupAlgebraElement.monomial(tuple(mult * x for x in pos), (-1) ** mult)
    return RationalFunction(f.datum, num, den)
