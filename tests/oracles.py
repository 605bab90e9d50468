"""Test-only helpers, kept out of the library because nothing in it calls
them: second computations of Weyl-group data, of row coset sums and of the
closed product formula, which the tests compare the library against, and
small conveniences for writing the tests (word evaluation, the pairing,
scaling, T-sums back in the localization basis, expanded denominators, the
translation law); and the tuple-keyed group algebra that the packed one in
``kschubert.ring`` is compared against."""

import operator
from types import MappingProxyType

from kschubert.constants import (
    StructureConstantTable,
    _support_warnings,
    _translation_convolution,
    pontryagin_constants,
)
from kschubert.nilhecke import LOC, KElement, e_cosets, kel_add, t_in_loc
from kschubert.ring import GroupAlgebraElement, RationalFunction, format_gae
from kschubert.rootsys import Matrix, Weight, matvec
from kschubert.weyl import (
    AffineWeylElement,
    aff_multiply,
    affine_simple,
    coset_min,
    demazure_extend,
    finite_element,
    identity,
    is_grassmannian,
    length,
    translation,
    weyl_group,
)


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


def finite_coset(x):
    """The coset x W as explicit elements."""
    group = weyl_group(x.datum)
    return [aff_multiply(x, finite_element(x.datum, m)) for m in group.elements]


def reduced_word_max_tiebreak(x):
    """Second deterministic reduced word (largest-index tie break), used to
    check that word-dependent computations are in fact word-independent."""
    word = []
    current = x
    while not current.is_identity:
        i = max(
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


def pontryagin_constants_rf(x, y):
    """The paper's closed coset formula, sum over t1, t2 of
    b_{x,[t1]} b_{y,[t2]} e_{t1 t2,[z]}, with every partial sum a reduced
    ``RationalFunction``.  It is off the engine's path: the reference for
    ``constants.pontryagin_constants``, which folds the y-side sum into the
    coset rows of t_mu y_y and divides once by x's common denominator."""
    if not (is_grassmannian(x) and is_grassmannian(y)):
        raise ValueError("both factors must be affine Grassmannian elements")
    datum = x.datum
    convolution = _translation_convolution(x, y)
    raw: dict[AffineWeylElement, RationalFunction] = {}
    for sigma, p in convolution.items():
        for z, egae in e_cosets(translation(datum, sigma), identity(datum)).items():
            val = p * egae
            raw[z] = raw[z] + val if z in raw else val
    entries = {z: c.to_polynomial() for z, c in raw.items() if c}
    return StructureConstantTable(x, y, entries, _support_warnings(x, y, entries))


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
