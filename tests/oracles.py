"""Second computations of Weyl-group data, kept out of the library because
only the tests compare against them."""

from kschubert.weyl import aff_multiply, affine_simple, finite_element, left_descents, weyl_group


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
        i = max(left_descents(current))
        word.append(i)
        current = aff_multiply(affine_simple(current.datum, i), current)
    return tuple(word)
