import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    TupleGroupAlgebraElement,
    combine_per_entry,
    coset_sums,
    den_gae,
    matrix_rf_act,
    projected_row,
    reduce_one_factor_at_a_time,
    rf_act,
    rf_inverse_one_minus_exp,
    tuple_divide_one_minus_exp,
)
from kschubert.nilhecke import b_cosets, b_lift, e_row, t_row, translation_cosets
from kschubert import ring
from kschubert.ring import (
    COORD_LIMIT,
    GroupAlgebraElement,
    NonPolynomialError,
    RationalFunction,
    combine,
    format_gae,
    gae_to_json,
    lift,
    pack,
    rf_to_json,
    unpack,
)
from kschubert.rootsys import build_root_system
from kschubert.weyl import grassmannian_ball, weyl_group

G = GroupAlgebraElement


def divide_one_minus_exp(f, beta):
    """f / (1 - e^beta), or None if it does not divide: one grouping of the
    library's coset pass (``ring._coset_pass``) over f alone, the division
    that ``RationalFunction`` reduction and ``combine`` run."""
    quotient, keeps = ring._coset_pass(f.terms, beta, f.rank, f.bound, 1)
    return None if keeps else G.from_packed(f.rank, quotient, f.bound)


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
    assert divide_one_minus_exp(G(1), alpha) == G(1)


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
    f1 = rf_inverse_one_minus_exp(a1, alpha)
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
    x = rf_inverse_one_minus_exp(a1, a1.positive_roots[0])
    assert x + RationalFunction.from_gae(a1, G(a1.rank)) == x


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
    f = RationalFunction(a1, G(1), ((alpha, 3),))
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
        rf_inverse_one_minus_exp(a1, alpha).to_polynomial()


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
    f = rf_inverse_one_minus_exp(a1, alpha)
    expect = RationalFunction(a1, G.monomial(alpha, -1), ((alpha, 1),))
    assert rf_act(f, s1) == expect
    # monomials reflect
    g = RationalFunction.from_gae(a1, G.monomial(alpha))
    assert rf_act(g, s1) == RationalFunction.from_gae(a1, G.monomial((-2,)))


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
        values.extend(lift(datum, b_cosets(x))[1].values())
        values.extend(coset_sums(e_row(x)).values())
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
                assert rf_act(f, action) == matrix_rf_act(f, matrix)
                flipped.update(action.roots[root][1] for root, _ in f.den)
    assert flipped == {True, False}


def same_sums(got: dict, expected: dict) -> bool:
    """Equal entries in the same order, with equal JSON: byte-identical."""
    return list(got) == list(expected) and [rf_to_json(c) for c in got.values()] == [
        rf_to_json(c) for c in expected.values()
    ]


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 6), ("A2", 5), ([[2, -2], [-1, 2]], 4), ([[2, -1], [-2, 2]], 4), ([[2, -1], [-3, 2]], 4)],
    ids=["A1", "A2", "B2", "C2", "G2"],
)
def test_flat_combine_matches_per_entry_oracle_on_whole_balls(spec, max_len):
    """The flat accumulator of ``combine`` against the per-entry sum it
    replaced: the product sums of every ordered pair of the ball, and the
    T-expansions of the k and l class inputs, before any exactness gate."""
    datum = build_root_system(spec)
    ball = grassmannian_ball(datum, max_len)
    for x in ball:
        for y in ball:
            def rows(mu, y=y):
                return translation_cosets(mu, y)

            assert same_sums(combine(datum, b_lift(x, True), rows), combine_per_entry(datum, b_cosets(x), rows))
        for y_side in (False, True):
            a = projected_row(x, y_side).terms
            assert same_sums(combine(datum, lift(datum, a), t_row), combine_per_entry(datum, a, t_row))


def test_combine_keeps_non_polynomial_entries_apart(a1):
    """Entries that keep different denominator factors come out as each
    would reduce alone, even when they share weights."""
    alpha = a1.positive_roots[0]
    one, e = G.one(1), G.monomial(alpha)
    coeffs = {
        "a": RationalFunction(a1, one, ((alpha, 2),)),
        "b": RationalFunction(a1, e, ((alpha, 1),)),
    }
    rows = {"a": {0: one - e, 1: one, 2: (one - e) * (one - e)}, "b": {0: one, 1: one - e}}
    got = combine(a1, lift(a1, coeffs), rows.__getitem__)
    assert same_sums(got, combine_per_entry(a1, coeffs, rows.__getitem__))
    assert [len(c.den) and c.den[0][1] for c in got.values()] == [1, 2, 0]


def power(g, n):
    out = G.one(g.rank)
    for _ in range(n):
        out = out * g
    return out


def test_combine_divides_each_entry_up_to_the_multiplicity():
    """One combine call over D = (1 - e^beta)^3 with entries that divide
    exactly 0, 1, 2 and 3 times, and one whose two cosets modulo Z*beta
    allow 3 and 1 divisions, so the entry divides once: one grouping per
    root gives what one factor per pass gave."""
    a2 = build_root_system("A2")
    beta = (2, -1)
    one, e = G.one(2), G.monomial(beta)
    f = one - e
    h = one + G.monomial((0, 1))  # augmentation 2: (1 - e^beta) does not divide it
    entries = {k: h * power(f, k) for k in range(4)}
    entries[4] = power(f, 3) * G.monomial((0, 1)) + f * G.monomial((0, 2))
    coeffs = {0: RationalFunction(a2, one, ((beta, 3),))}
    got = combine(a2, lift(a2, coeffs), lambda k: entries)
    assert same_sums(got, combine_per_entry(a2, coeffs, lambda k: entries))
    assert [c.den for c in got.values()] == [((beta, 3),), ((beta, 2),), ((beta, 1),), (), ((beta, 2),)]
    assert [c.num for c in got.values()][:4] == [h] * 4
    assert got[4].num == power(f, 2) * G.monomial((0, 1)) + G.monomial((0, 2))


@pytest.mark.parametrize(
    "spec,max_len",
    [("A2", 4), ([[2, -2], [-1, 2]], 3), ([[2, -1], [-3, 2]], 3)],
    ids=["A2", "B2", "G2"],
)
def test_rf_reduction_with_multiplicity_matches_one_factor_oracle(spec, max_len):
    """``RationalFunction`` reduction, one coset grouping per root, against
    division one factor at a time in the tuple-keyed oracle: every e coset
    value of a Grassmannian ball times (1 - e^beta)^a over (1 - e^beta)^m
    and over a second root, a and m up to 3, with outcomes from no division
    to full cancellation."""
    datum = build_root_system(spec)
    one = G.one(datum.rank)
    roots = datum.positive_roots
    values = {
        tuple(g.sorted_terms()): g
        for x in grassmannian_ball(datum, max_len)
        for g in coset_sums(e_row(x)).values()
    }
    kept = set()
    for g in values.values():
        for beta, gamma in zip(roots, roots[1:] + roots[:1]):
            factor = one - G.monomial(beta)
            for a in range(4):
                num = g * power(factor, a)
                for m in range(1, 4):
                    for den in (((beta, m),), tuple(sorted({beta: m, gamma: 1}.items()))):
                        got = RationalFunction(datum, num, den)
                        expected = reduce_one_factor_at_a_time(datum.rank, num.terms, den)
                        assert (got.num, got.den) == expected
                        kept.add(sum(m for _, m in got.den))
    assert {0, 1, 2, 3} <= kept


def test_combine_refuses_coordinates_past_the_packing_range(a1):
    """A product term whose coordinate would pass COORD_LIMIT raises instead
    of carrying into the slot bits of the next entry."""
    half = G.monomial((COORD_LIMIT // 2 + 1,))
    lifted = ((), {0: half})
    with pytest.raises(ValueError, match="packing range"):
        combine(a1, lifted, lambda k: {"z": half})
    below = G.monomial((COORD_LIMIT // 2,))
    sums = combine(a1, ((), {0: below}), lambda k: {"z": below, "w": G.one(1)})
    assert sums["z"].num == G.monomial((2 * (COORD_LIMIT // 2),))
    assert sums["w"].num == below
