"""Second computations of Weyl-group data and of row coset sums, kept out of
the library because only the tests compare against them."""

from kschubert.weyl import (
    aff_multiply,
    affine_simple,
    coset_min,
    finite_element,
    length,
    weyl_group,
)


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
