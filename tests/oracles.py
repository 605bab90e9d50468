"""Test-only helpers, kept out of the library because nothing in it calls
them: second computations of Weyl-group data, of row coset sums and of the
closed product formula, which the tests compare the library against, and
small conveniences for writing the tests (word evaluation, the pairing,
scaling, T-sums back in the localization basis, expanded denominators, the
translation law)."""

from kschubert.constants import (
    StructureConstantTable,
    _support_warnings,
    _translation_convolution,
    pontryagin_constants,
)
from kschubert.nilhecke import LOC, KElement, e_cosets, kel_add, t_in_loc
from kschubert.ring import GroupAlgebraElement, RationalFunction
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
    """The closed coset formula with every partial sum a reduced
    ``RationalFunction``: the reference for ``constants.pontryagin_constants``,
    which forms the same sum over one common denominator."""
    if not (is_grassmannian(x) and is_grassmannian(y)):
        raise ValueError("both factors must be affine Grassmannian elements")
    datum = x.datum
    convolution = _translation_convolution(x, y)
    raw: dict[AffineWeylElement, RationalFunction] = {}
    for sigma, p in convolution.items():
        for z, egae in e_cosets(translation(datum, sigma)).items():
            val = p * egae
            raw[z] = raw[z] + val if z in raw else val
    entries = {z: c.to_polynomial() for z, c in raw.items() if c}
    return StructureConstantTable(x, y, entries, _support_warnings(x, y, entries))
