import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reduced_word_max_tiebreak
from kschubert.ring import GroupAlgebraElement, RationalFunction
from kschubert.rootsys import level_zero_root
from kschubert.nilhecke import (
    LOC,
    TBASIS,
    YBASIS,
    KElement,
    ShapeViolationError,
    b_cosets,
    b_row_subword,
    basis_convert,
    e_cosets,
    e_row,
    e_row_subword,
    k_class,
    k_mul,
    kappa,
    kel_add,
    kel_scalar,
    kel_scale,
    l_class,
    t_element,
    t_in_loc,
    y_element,
    y_in_loc,
)
from kschubert.weyl import (
    affine_ball,
    affine_simple,
    aff_multiply,
    evaluate_word,
    grassmannian_ball,
    identity,
    is_grassmannian,
    length,
    lower_interval,
    parse_element,
    translation,
)

G = GroupAlgebraElement


def el(datum, text):
    return parse_element(text, datum)


# -- generators and their relations ---------------------------------------------


def test_t_squared_is_minus_t(a1, a2):
    for datum in (a1, a2):
        for i in range(datum.rank + 1):
            T = t_element(datum, i)
            assert k_mul(T, T) == kel_scale(T, -1)


def test_y_idempotent(a1, a2):
    for datum in (a1, a2):
        for i in range(datum.rank + 1):
            y = y_element(datum, i)
            assert k_mul(y, y) == y


def test_braid_relations_a2(a2):
    # every pair of affine nodes in rank two satisfies the order-3 braid relation
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            Ti, Tj = t_element(a2, i), t_element(a2, j)
            assert k_mul(Ti, k_mul(Tj, Ti)) == k_mul(Tj, k_mul(Ti, Tj))
            yi, yj = y_element(a2, i), y_element(a2, j)
            assert k_mul(yi, k_mul(yj, yi)) == k_mul(yj, k_mul(yi, yj))


def test_t1_coefficient_of_identity(a1):
    T1 = t_element(a1, 1)
    alpha = a1.positive_roots[0]
    expect = -RationalFunction.inverse_one_minus_exp(a1, alpha)
    assert T1.terms[identity(a1)] == expect


def test_y_s0_expansion(a1):
    alpha = a1.positive_roots[0]
    y = y_in_loc(affine_simple(a1, 0))
    inv = RationalFunction.inverse_one_minus_exp(a1, alpha)
    assert y.terms[identity(a1)] == inv
    assert y.terms[affine_simple(a1, 0)] == inv * G.monomial(alpha, -1)


def test_k_mul_one_twist(a1):
    # (1 (x) s_1)(e^a (x) id) = e^{-a} (x) s_1
    s1 = affine_simple(a1, 1)
    a = KElement(a1, LOC, {s1: RationalFunction.one(a1)})
    b = kel_scalar(a1, RationalFunction.from_gae(a1, G.monomial((2,))))
    prod = k_mul(a, b)
    assert prod == KElement(
        a1, LOC, {s1: RationalFunction.from_gae(a1, G.monomial((-2,)))}
    )


def test_translations_multiply_in_loc(a2):
    t1 = KElement(a2, LOC, {translation(a2, (-1, 0)): RationalFunction.one(a2)})
    t2 = KElement(a2, LOC, {translation(a2, (0, -1)): RationalFunction.one(a2)})
    assert k_mul(t1, t2) == KElement(
        a2, LOC, {translation(a2, (-1, -1)): RationalFunction.one(a2)}
    )


# -- b and e coefficients ---------------------------------------------------------


def test_b_row_s0(a1):
    alpha = a1.positive_roots[0]
    s0 = affine_simple(a1, 0)
    row = y_in_loc(s0).terms
    inv = RationalFunction.inverse_one_minus_exp(a1, alpha)
    assert row[identity(a1)] == inv
    assert row[s0] == inv * G.monomial(alpha, -1)
    # coset sum at t_{alpha_vee}
    assert b_cosets(s0)[(1,)] == inv * G.monomial(alpha, -1)


def test_b_row_identity(a1):
    assert y_in_loc(identity(a1)).terms == {identity(a1): RationalFunction.one(a1)}


def test_e_row_identity_and_s0(a1):
    assert e_row(identity(a1)) == {identity(a1): G.one(1)}
    row = e_row(affine_simple(a1, 0))
    assert row[identity(a1)] == G.monomial((-2,))
    assert row[affine_simple(a1, 0)] == G.one(1) - G.monomial((-2,))


def test_e_row_coset_value_from_square(a1):
    # e_{t_{2 alpha_vee}, [t_{-alpha_vee}]} = e^{-a} (1 - e^{-a})^2
    cosets = e_cosets(translation(a1, (2,)))
    ema = G.monomial((-2,))
    expect = ema * (G.one(1) - ema) * (G.one(1) - ema)
    assert cosets[(-1,)] == expect


def test_b_row_supported_on_lower_interval(a2):
    for x in affine_ball(a2, 4):
        interval = lower_interval(x)
        assert set(y_in_loc(x).terms) <= set(interval)
        assert set(e_row(x)) <= set(interval)


def test_e_rows_are_polynomial_by_type(a2):
    for x in affine_ball(a2, 4):
        for value in e_row(x).values():
            assert isinstance(value, G)


@pytest.mark.parametrize("fixture_name,max_len", [("a1", 5), ("a2", 4)])
def test_subword_oracles_agree(request, fixture_name, max_len):
    datum = request.getfixturevalue(fixture_name)
    for x in affine_ball(datum, max_len):
        assert b_row_subword(x) == y_in_loc(x).terms
        assert e_row_subword(x) == e_row(x)


@pytest.mark.parametrize("fixture_name,max_len", [("a1", 5), ("a2", 4)])
def test_rows_independent_of_reduced_word(request, fixture_name, max_len):
    datum = request.getfixturevalue(fixture_name)
    for x in affine_ball(datum, max_len):
        other = reduced_word_max_tiebreak(x)
        assert b_row_subword(x, other) == y_in_loc(x).terms
        assert e_row_subword(x, other) == e_row(x)


def test_matrix_inverse_identity_small(a1):
    ball = affine_ball(a1, 4)
    for x in ball:
        row = y_in_loc(x).terms
        for z in ball:
            total = RationalFunction.zero(a1)
            for v, b in row.items():
                e = e_row(v).get(z)
                if e is not None:
                    total = total + b * e
            expected = RationalFunction.one(a1) if x == z else RationalFunction.zero(a1)
            assert total == expected


# -- basis conversion --------------------------------------------------------------


def test_y_s0_in_tbasis(a1):
    s0 = affine_simple(a1, 0)
    y = KElement(a1, YBASIS, {s0: RationalFunction.one(a1)})
    t = basis_convert(y, TBASIS)
    one = RationalFunction.one(a1)
    assert t == KElement(a1, TBASIS, {identity(a1): one, s0: one})


def test_t_g2_in_ybasis(a1):
    g2 = translation(a1, (-1,))
    t = KElement(a1, TBASIS, {g2: RationalFunction.one(a1)})
    y = basis_convert(t, YBASIS)
    one = RationalFunction.one(a1)
    assert y == KElement(
        a1,
        YBASIS,
        {
            g2: one,
            affine_simple(a1, 0): -one,
            affine_simple(a1, 1): -one,
            identity(a1): one,
        },
    )


@pytest.mark.parametrize("basis", [TBASIS, YBASIS, LOC])
def test_roundtrip_conversions(a2, basis):
    x = el(a2, "s1*s2 t[-1,-1]")
    y = el(a2, "s2 t[-1,-1]")
    start = KElement(
        a2,
        basis,
        {
            x: RationalFunction.from_gae(a2, G.monomial((1, 0))),
            y: RationalFunction.one(a2) + RationalFunction.one(a2),
        },
    )
    for target in (TBASIS, YBASIS, LOC):
        converted = basis_convert(start, target)
        back = basis_convert(converted, basis)
        assert back == start


def test_group_element_in_ybasis_has_e_coefficients(a1):
    u = translation(a1, (2,))
    loc = KElement(a1, LOC, {u: RationalFunction.one(a1)})
    y = basis_convert(loc, YBASIS)
    for v, c in y.terms.items():
        assert c == RationalFunction.from_gae(a1, e_row(u)[v])


# -- kappa and the Schubert-class images -------------------------------------------


def test_kappa_examples(a1):
    assert kappa(t_in_loc(affine_simple(a1, 1))).terms == {}
    s0 = affine_simple(a1, 0)
    assert kappa(t_in_loc(s0)) == kappa(basis_convert(k_class(s0), LOC))
    t = translation(a1, (-2,))
    scalar = KElement(a1, LOC, {t: RationalFunction.one(a1)})
    assert kappa(scalar) == scalar


def test_kappa_kills_exactly_non_grassmannian(a1, a2):
    for datum, bound in ((a1, 6), (a2, 5)):
        for u in affine_ball(datum, bound):
            value = kappa(t_in_loc(u))
            if is_grassmannian(u):
                assert value.terms, u
            else:
                assert not value.terms, u


def test_k_class_closed_forms(a1):
    one = RationalFunction.one(a1)
    ema = RationalFunction.from_gae(a1, G.monomial((-2,)))
    one_minus = one - ema
    for r in (1, 2, 3):
        g_odd = el(a1, f"s1 t[{-r}]")
        h_odd = el(a1, f"s1 t[{r - 1}]") if r > 1 else el(a1, "s1")
        h_even = el(a1, f"t[{r}]")
        assert k_class(g_odd) == KElement(
            a1, TBASIS, {g_odd: one, h_odd: one, h_even: one_minus}
        )
        g_even = el(a1, f"t[{-r}]")
        assert k_class(g_even) == KElement(a1, TBASIS, {g_even: one, h_even: ema})
    assert k_class(identity(a1)) == kel_scalar(a1, 1, TBASIS)


def test_l_class_closed_forms(a1):
    one = RationalFunction.one(a1)
    one_minus = one - RationalFunction.from_gae(a1, G.monomial((-2,)))
    for r in (1, 2, 3):
        ball = affine_ball(a1, 2 * r)
        expect_even = KElement(a1, TBASIS, {v: one for v in ball})
        assert l_class(el(a1, f"t[{-r}]")) == expect_even
        odd_terms = {v: one for v in affine_ball(a1, 2 * r - 1)}
        odd_terms[el(a1, f"t[{r}]")] = one_minus
        assert l_class(el(a1, f"s1 t[{-r}]")) == KElement(a1, TBASIS, odd_terms)
    assert l_class(identity(a1)) == kel_scalar(a1, 1, TBASIS)


def test_l_class_is_sum_of_k_classes(a2):
    for w in grassmannian_ball(a2, 4):
        total = kel_scalar(a2, 0, TBASIS)
        for v in lower_interval(w):
            if is_grassmannian(v):
                total = kel_add(total, k_class(v))
        assert l_class(w) == total


def test_k_class_shape_guard(a1):
    with pytest.raises(ValueError):
        k_class(el(a1, "s1"))  # not Grassmannian: rejected before shape check


def test_k_class_coefficients_polynomial(a2):
    for w in grassmannian_ball(a2, 4):
        for x, c in k_class(w).terms.items():
            c.to_polynomial()
            if x != w:
                assert not is_grassmannian(x)


# -- algebra identities from the construction ---------------------------------------


def test_sl2_k_classes_commute_with_scalars(a1):
    # the closed-form classes centralize the base ring: k e^{-a} = e^{-a} k
    ema = kel_scalar(a1, RationalFunction.from_gae(a1, G.monomial((-2,))))
    for r in (1, 2, 3):
        for name in (f"s1 t[{-r}]", f"t[{-r}]"):
            k = basis_convert(k_class(el(a1, name)), LOC)
            assert k_mul(k, ema) == k_mul(ema, k)


def rf_strategy(datum):
    rank = datum.rank
    weights = st.tuples(*([st.integers(min_value=-1, max_value=1)] * rank))
    gaes = st.dictionaries(weights, st.integers(min_value=-3, max_value=3), max_size=3)
    roots = st.sampled_from(datum.positive_roots)
    return st.tuples(gaes, roots, st.integers(min_value=0, max_value=1)).map(
        lambda t: RationalFunction(datum, G(rank, t[0]), ((t[1], t[2]),) if t[2] else ())
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_scalar_commutation_rule(a2, data):
    # q y_i = y_i (s_i q) + (q - s_i q)/(1 - e^{-alpha_i}) y_id
    q = data.draw(rf_strategy(a2))
    i = data.draw(st.sampled_from([0, 1, 2]))
    yi = y_element(a2, i)
    lhs = k_mul(kel_scalar(a2, q), yi)
    si = affine_simple(a2, i)
    siq = q.act(si.wmat)
    alpha = level_zero_root(a2, i)
    corr = (q - siq) * RationalFunction.inverse_one_minus_exp(
        a2, tuple(-c for c in alpha)
    )
    rhs = kel_add(k_mul(yi, kel_scalar(a2, siq)), kel_scalar(a2, corr))
    assert lhs == rhs


def test_k_mul_requires_loc(a1):
    a = kel_scalar(a1, 1, TBASIS)
    with pytest.raises(ValueError):
        k_mul(a, a)
