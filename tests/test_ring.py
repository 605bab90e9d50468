import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kschubert.ring import (
    GroupAlgebraElement,
    NonPolynomialError,
    RationalFunction,
    divide_one_minus_exp,
    format_gae,
    gae_from_json,
    gae_to_json,
)

G = GroupAlgebraElement


def weights(rank):
    return st.tuples(*([st.integers(min_value=-2, max_value=2)] * rank))


def gaes(rank):
    return st.dictionaries(weights(rank), st.integers(min_value=-4, max_value=4), max_size=4).map(
        lambda d: G(rank, d)
    )


def rfs(a1):
    alpha = a1.positive_roots[0]
    return st.tuples(gaes(1), st.integers(min_value=0, max_value=2)).map(
        lambda t: RationalFunction(a1, t[0], ((alpha, t[1]),) if t[1] else ())
    )


# -- group algebra -------------------------------------------------------------


def test_monomial_inverse(a1):
    alpha = a1.positive_roots[0]
    ea = G.monomial(alpha)
    ema = G.monomial((-2,))
    assert ea * ema == G.one(1)


def test_coefficients_of_quantum_line_sum_to_one(a1):
    one = G.one(1)
    ema = G.monomial((-2,))
    assert (one - ema) + ema == one


def test_product_expansion(a1):
    one = G.one(1)
    ea = G.monomial((2,))
    ema = G.monomial((-2,))
    assert (one - ema) * (one - ea) == 2 * one - ea - ema


def test_no_zero_terms_stored():
    g = G(1, {(0,): 0, (2,): 3})
    assert list(g.terms) == [(2,)]
    assert not (g - g)


@given(gaes(2), gaes(2), gaes(2))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(gaes(2), gaes(2))
def test_augmentation_is_ring_hom(f, g):
    assert (f + g).augmentation() == f.augmentation() + g.augmentation()
    assert (f * g).augmentation() == f.augmentation() * g.augmentation()


def test_augmentation_examples(a1):
    assert (G.one(1) - G.monomial((-2,))).augmentation() == 0
    assert G.monomial((-2,)).augmentation() == 1
    # first line of the rank-two table: 0 + 1 + 1 - 1
    assert 0 + 1 + 1 - 1 == 1


# -- exact division ------------------------------------------------------------


def test_divide_examples(a1):
    alpha = a1.positive_roots[0]
    one = G.one(1)
    ea = G.monomial(alpha)
    assert divide_one_minus_exp(one - ea, alpha) == one
    # 1 - e^{-a} = (-e^{-a})(1 - e^a)
    assert divide_one_minus_exp(one - G.monomial((-2,)), alpha) == G.monomial((-2,), -1)
    assert divide_one_minus_exp(one, alpha) is None
    assert divide_one_minus_exp(G.zero(1), alpha) == G.zero(1)


@given(gaes(2))
def test_divide_roundtrip(f):
    beta = (2, -1)
    one_minus = G.one(2) - G.monomial(beta)
    product = f * one_minus
    assert divide_one_minus_exp(product, beta) == f


@settings(max_examples=60)
@given(gaes(1))
def test_divide_detects_nondivisible(f):
    alpha = (2,)
    q = divide_one_minus_exp(f, alpha)
    if q is not None:
        assert q * (G.one(1) - G.monomial(alpha)) == f


# -- rational functions --------------------------------------------------------


def test_rf_add_cancels(a1):
    alpha = a1.positive_roots[0]
    f1 = RationalFunction.inverse_one_minus_exp(a1, alpha)
    f2 = RationalFunction(a1, G.monomial(alpha, -1), ((alpha, 1),))
    assert f1 + f2 == RationalFunction.one(a1)


def test_rf_remark_product(a1):
    # (-e^a/(1-e^a))^2 * e^{-a} (1-e^{-a})^2 = e^{-a}
    alpha = a1.positive_roots[0]
    one = G.one(1)
    ema = G.monomial((-2,))
    b = RationalFunction(a1, G.monomial(alpha, -1), ((alpha, 1),))
    value = b * b * RationalFunction.from_gae(a1, ema * (one - ema) * (one - ema))
    assert value == RationalFunction.from_gae(a1, ema)


def test_rf_additive_identity(a1):
    x = RationalFunction.inverse_one_minus_exp(a1, a1.positive_roots[0])
    assert x + RationalFunction.zero(a1) == x


def test_rf_reduce_normalization(a1):
    alpha = a1.positive_roots[0]
    one = G.one(1)
    # (1 - e^a)/(1 - e^a) -> 1
    f = RationalFunction(a1, one - G.monomial(alpha), ((alpha, 1),))
    assert f == RationalFunction.one(a1)
    # (1 - e^{-a})/(1 - e^a) -> -e^{-a}
    f = RationalFunction(a1, one - G.monomial((-2,)), ((alpha, 1),))
    assert f == RationalFunction.from_gae(a1, G.monomial((-2,), -1))
    # already reduced
    f = RationalFunction.from_gae(a1, G.monomial((-2,)))
    assert RationalFunction(f.datum, f.num, f.den) == f


def test_rf_zero_has_empty_denominator(a1):
    alpha = a1.positive_roots[0]
    f = RationalFunction(a1, G.zero(1), ((alpha, 3),))
    assert f.is_zero and f.den == ()


def test_to_polynomial(a1):
    alpha = a1.positive_roots[0]
    ema = G.monomial((-2,))
    assert RationalFunction.from_gae(a1, ema).to_polynomial() == ema
    # (e^a - e^{2a})/(1 - e^a) = e^a
    num = G.monomial(alpha) - G.monomial((4,))
    f = RationalFunction(a1, num, ((alpha, 1),))
    assert f.to_polynomial() == G.monomial(alpha)
    with pytest.raises(NonPolynomialError):
        RationalFunction.inverse_one_minus_exp(a1, alpha).to_polynomial()


def test_normalization_identity_every_positive_root(a2):
    one = G.one(2)
    for beta in a2.positive_roots:
        neg = tuple(-x for x in beta)
        lhs = one - G.monomial(neg)
        rhs = G.monomial(neg, -1) * (one - G.monomial(beta))
        assert lhs == rhs


def test_weyl_act_on_rf(a1):
    alpha = a1.positive_roots[0]
    s1 = ((-1,),)
    f = RationalFunction.inverse_one_minus_exp(a1, alpha)
    expect = RationalFunction(a1, G.monomial(alpha, -1), ((alpha, 1),))
    assert f.act(s1) == expect
    # monomials reflect
    g = RationalFunction.from_gae(a1, G.monomial(alpha))
    assert g.act(s1) == RationalFunction.from_gae(a1, G.monomial((-2,)))


@settings(max_examples=40)
@given(st.data())
def test_rf_add_agrees_with_cross_multiplication(a1, data):
    f = data.draw(rfs(a1))
    g = data.draw(rfs(a1))
    total = f + g
    # compare via cross multiplication with expanded denominators
    lhs = total.num * f.den_gae() * g.den_gae()
    rhs = (f.num * g.den_gae() + g.num * f.den_gae()) * total.den_gae()
    assert lhs == rhs


@settings(max_examples=40)
@given(st.data())
def test_rf_mul_agrees_with_numerator_product(a1, data):
    f = data.draw(rfs(a1))
    g = data.draw(rfs(a1))
    prod = f * g
    assert prod.num * f.den_gae() * g.den_gae() == f.num * g.num * prod.den_gae()


def test_json_roundtrip(a2):
    g = G(2, {(1, -2): 5, (0, 0): -3})
    assert gae_from_json(2, gae_to_json(g)) == g


def test_format_gae_deterministic(a1):
    g = G.one(1) - G.monomial((-2,))
    assert format_gae(g, a1, root_coords=True) == "-e^{-a1} + 1"

