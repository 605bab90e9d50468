import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TupleGroupAlgebraElement, den_gae, matrix_rf_act, tuple_divide_one_minus_exp
from kschubert.nilhecke import b_cosets, e_cosets
from kschubert.ring import (
    COORD_LIMIT,
    GroupAlgebraElement,
    NonPolynomialError,
    RationalFunction,
    common_denominator,
    divide_one_minus_exp,
    format_gae,
    gae_to_json,
    pack,
    unpack,
)
from kschubert.rootsys import build_root_system
from kschubert.weyl import grassmannian_ball, identity, weyl_group

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
    assert (one - ema) * (one - ea) == one * 2 - ea - ema


def test_no_zero_terms_stored():
    g = G(1, {(0,): 0, (2,): 3})
    assert g.sorted_terms() == [((2,), 3)]
    assert len(g.terms) == 1
    assert not (g - g)


def test_product_rejects_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        G(1, {(1,): 1}) * G(2, {(1, 1): 1})
    with pytest.raises(ValueError, match="rank mismatch"):
        G(1, {(1,): 1}) + G(2, {(1, 1): 1})
    with pytest.raises(ValueError, match="rank mismatch"):
        divide_one_minus_exp(G.one(2), (2,))


def test_constructor_rejects_weight_of_wrong_length():
    with pytest.raises(ValueError, match="rank"):
        G(2, {(1,): 1})
    with pytest.raises(ValueError, match="rank"):
        G(1, {(1, 0): 0})


def test_monomial_takes_its_rank_from_its_weight():
    g = G.monomial((1, 0))
    assert g.rank == 2 and g.sorted_terms() == [((1, 0), 1)]
    with pytest.raises(ValueError, match="rank mismatch"):
        g * G.one(1)


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
    assert not f and f.den == ()


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
    s1 = weyl_group(a1).action[1]
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
    lhs = total.num * den_gae(f) * den_gae(g)
    rhs = (f.num * den_gae(g) + g.num * den_gae(f)) * den_gae(total)
    assert lhs == rhs


@settings(max_examples=40)
@given(st.data())
def test_rf_mul_agrees_with_numerator_product(a1, data):
    f = data.draw(rfs(a1))
    g = data.draw(rfs(a1))
    prod = f * g
    assert prod.num * den_gae(f) * den_gae(g) == f.num * g.num * den_gae(prod)


def test_gae_to_json_pinned(a2):
    g = G(2, {(1, -2): 5, (0, 0): -3})
    assert gae_to_json(g) == [
        {"weight": [0, 0], "coeff": "-3"},
        {"weight": [1, -2], "coeff": "5"},
    ]


def test_format_gae_deterministic(a1):
    g = G.one(1) - G.monomial((-2,))
    assert format_gae(g, a1, root_coords=True) == "-e^{-a1} + 1"



# -- packed weights --------------------------------------------------------------


def edge_coordinates():
    """Coordinates at both ends of the packing range, near zero, or anywhere."""
    return st.one_of(
        st.integers(-COORD_LIMIT, -COORD_LIMIT + 2),
        st.integers(-2, 2),
        st.integers(COORD_LIMIT - 2, COORD_LIMIT),
        st.integers(-COORD_LIMIT, COORD_LIMIT),
    )


def weight_pairs():
    return st.integers(1, 4).flatmap(
        lambda r: st.tuples(*[st.tuples(*[edge_coordinates()] * r)] * 2)
    )


@given(weight_pairs())
def test_pack_round_trip_and_linearity(pair):
    u, v = pair
    rank = len(u)
    assert unpack(pack(u), rank) == u
    assert pack(tuple(-c for c in u)) == -pack(u)
    total = tuple(a + b for a, b in zip(u, v))
    if max(map(abs, total)) <= COORD_LIMIT:
        assert pack(u) + pack(v) == pack(total)
        assert unpack(pack(u) + pack(v), rank) == total
    if max(map(abs, u)) + max(map(abs, v)) <= COORD_LIMIT:
        assert G.monomial(u) * G.monomial(v, 3) == G.monomial(total, 3)
    else:
        with pytest.raises(ValueError, match="packing range"):
            G.monomial(u) * G.monomial(v)


@given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([1, -1]))
def test_coordinate_one_step_past_the_range_raises(rank, index, sign):
    index %= rank
    weight = tuple(sign * (COORD_LIMIT + 1) if j == index else 0 for j in range(rank))
    with pytest.raises(ValueError, match="packing range"):
        pack(weight)
    with pytest.raises(ValueError, match="packing range"):
        G(rank, {weight: 1})
    edge = tuple(sign * COORD_LIMIT if j == index else 0 for j in range(rank))
    assert G(rank, {edge: 1}).sorted_terms() == [(edge, 1)]


def test_product_chain_past_the_range_raises():
    h = G.monomial((1, -1))
    for _ in range(30):  # squaring: coordinates 2^30
        h = h * h
    assert h.sorted_terms() == [((1 << 30, -(1 << 30)), 1)]
    with pytest.raises(ValueError, match="packing range"):
        h * h
    # s1 of A2, matrix ((-1, 0), (1, 1)): row-sum norm 2
    reflection = weyl_group(build_root_system("A2")).action[1]
    with pytest.raises(ValueError, match="packing range"):
        h.act(reflection)
    assert G.monomial((1 << 29, 0)).act(reflection) == G.monomial((-(1 << 29), 1 << 29))


def to_tuple_keys(g):
    """The same element in the tuple-keyed oracle, read off the packed keys."""
    return TupleGroupAlgebraElement(g.rank, {unpack(k, g.rank): c for k, c in g.terms.items()})


def assert_same(packed, reference):
    assert packed.rank == reference.rank
    assert packed.sorted_terms() == reference.sorted_terms()


@pytest.mark.parametrize(
    "spec,max_len",
    [("A2", 5), ("A3", 3), ([[2, -2], [-1, 2]], 4), ([[2, -1], [-3, 2]], 4)],
    ids=["A2", "A3", "B2", "G2"],
)
def test_packed_ring_matches_tuple_oracle_on_whole_balls(spec, max_len):
    """Every b coset numerator (reduced, and lifted to the common
    denominator) and every e coset value of a Grassmannian ball, through
    products, flip, the action of every finite Weyl element and the exact
    division by each (1 - e^beta), with both quotient and None outcomes."""
    datum = build_root_system(spec)
    values = []
    for x in grassmannian_ball(datum, max_len):
        values.extend(f.num for f in b_cosets(x).values())
        values.extend(common_denominator(datum, b_cosets(x).values())[1])
        values.extend(e_cosets(x, identity(datum)).values())
    one = G.one(datum.rank)
    outcomes = set()
    for g, h in zip(values, values[1:] + values[:1]):
        ref_g = to_tuple_keys(g)
        assert_same(g, ref_g)
        assert_same(g * h, ref_g * to_tuple_keys(h))
        assert_same(g.flip(), ref_g.flip())
        group = weyl_group(datum)
        for matrix, action in zip(group.elements, group.action):
            assert_same(g.act(action), ref_g.act(matrix))
        for beta in datum.positive_roots:
            for f in (g, g * (one - G.monomial(beta))):
                quotient = divide_one_minus_exp(f, beta)
                expected = tuple_divide_one_minus_exp(to_tuple_keys(f), beta)
                outcomes.add(quotient is None)
                if expected is None:
                    assert quotient is None
                else:
                    assert_same(quotient, expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 6), ("A2", 4), ("A3", 3), ([[2, -2], [-1, 2]], 4), ([[2, -1], [-2, 2]], 4),
     ([[2, -1], [-3, 2]], 4)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_act_matches_matrix_route(spec, max_len):
    """The tabulated action of every finite Weyl element against matvec on
    unpacked weights, on every b coset sum of a Grassmannian ball (whose
    denominators meet roots sent to both signs)."""
    datum = build_root_system(spec)
    group = weyl_group(datum)
    flipped = set()
    for x in grassmannian_ball(datum, max_len):
        for f in b_cosets(x).values():
            ref = to_tuple_keys(f.num)
            for matrix, action in zip(group.elements, group.action):
                assert_same(f.num.act(action), ref.act(matrix))
                assert f.act(action) == matrix_rf_act(f, matrix)
                flipped.update(action.roots[root][1] for root, _ in f.den)
    assert flipped == {True, False}
