import pytest

from oracles import finite_coset, reduced_word_max_tiebreak
from kschubert.rootsys import build_root_system
from kschubert.weyl import (
    ParseError,
    ValidationError,
    aff_inverse,
    aff_multiply,
    affine_ball,
    affine_simple,
    bruhat_leq,
    coset_min,
    coset_translation,
    demazure_product,
    evaluate_word,
    format_element,
    grassmannian_ball,
    identity,
    is_grassmannian,
    length,
    lower_interval,
    parse_element,
    reduced_word,
    reflection_roots,
    translation,
    validate_length_convention,
    weyl_act,
    weyl_group,
)


# -- group law fixtures (these pin the semidirect-product convention) ----------


def test_s0_is_s1_t_minus_alpha_vee(a1):
    s0 = affine_simple(a1, 0)
    s1 = affine_simple(a1, 1)
    assert s0 == aff_multiply(s1, translation(a1, (-1,)))
    assert format_element(s0) == "s1 t[-1]"


def test_s1_s0_is_translation(a1):
    s0, s1 = affine_simple(a1, 0), affine_simple(a1, 1)
    assert aff_multiply(s1, s0) == translation(a1, (-1,))


def test_inverse(a2):
    x = parse_element("s1*s2 t[-1,-1]", a2)
    assert aff_multiply(x, aff_inverse(x)) == identity(a2)
    assert aff_multiply(aff_inverse(x), x) == identity(a2)


def test_translations_multiply_additively(a2):
    t1 = translation(a2, (-1, 2))
    t2 = translation(a2, (3, -1))
    assert aff_multiply(t1, t2) == translation(a2, (2, 1))


def test_apply_affine_simple(a1):
    s0 = affine_simple(a1, 0)
    assert aff_multiply(s0, identity(a1)) == s0
    g3 = evaluate_word(a1, [0, 1, 0])
    assert format_element(g3) == "s1 t[-2]"
    assert length(g3) == 3
    x = parse_element("s1 t[-2]", a1)
    assert aff_multiply(s0, aff_multiply(s0, x)) == x


# -- length ---------------------------------------------------------------------


def test_length_fixtures(a1):
    assert length(affine_simple(a1, 0)) == 1
    assert length(translation(a1, (-1,))) == 2
    assert length(evaluate_word(a1, [0, 1, 0, 1])) == 4
    assert evaluate_word(a1, [0, 1, 0, 1]) == translation(a1, (2,))


def test_length_formula_vs_bfs(a1, a2):
    validate_length_convention(a1, 8)
    validate_length_convention(a2, 8)
    # B2, C2 and G2, the other rank-two types the root-system layer accepts
    for cartan in ([[2, -2], [-1, 2]], [[2, -1], [-2, 2]], [[2, -1], [-3, 2]]):
        validate_length_convention(build_root_system(cartan), 8)


def test_length_changes_by_one(a2):
    for x in affine_ball(a2, 4):
        for i in range(a2.rank + 1):
            assert abs(length(aff_multiply(x, affine_simple(a2, i))) - length(x)) == 1


# -- reduced words ---------------------------------------------------------------


def test_reduced_word_fixtures(a1):
    assert reduced_word(translation(a1, (-1,))) == (1, 0)
    assert reduced_word(identity(a1)) == ()


def test_reduced_word_roundtrip(a2):
    for x in affine_ball(a2, 6):
        word = reduced_word(x)
        assert len(word) == length(x)
        assert evaluate_word(a2, word) == x
        word2 = reduced_word_max_tiebreak(x)
        assert len(word2) == length(x)
        assert evaluate_word(a2, word2) == x


def test_reduced_word_translation_a2(a2):
    x = translation(a2, (-2, -2))
    word = reduced_word(x)
    assert len(word) == length(x) == 8
    assert evaluate_word(a2, word) == x


# -- Bruhat order ----------------------------------------------------------------


def test_bruhat_basics(a1):
    g2 = translation(a1, (-1,))
    h2 = translation(a1, (1,))
    for x in affine_ball(a1, 5):
        assert bruhat_leq(identity(a1), x)
    assert bruhat_leq(affine_simple(a1, 0), g2)
    assert not bruhat_leq(h2, g2)
    assert not bruhat_leq(g2, h2)
    interval = lower_interval(g2)
    expected = {identity(a1), affine_simple(a1, 0), affine_simple(a1, 1), g2}
    assert interval == expected


@pytest.mark.parametrize("fixture_name,max_len", [("a1", 8), ("a2", 8)])
def test_bruhat_vs_subword_enumeration(request, fixture_name, max_len):
    datum = request.getfixturevalue(fixture_name)
    ball = affine_ball(datum, max_len)
    for v in ball:
        # subword closure from two different reduced words must agree
        interval = lower_interval(v)
        other = {identity(datum)}
        for i in reduced_word_max_tiebreak(v):
            s = affine_simple(datum, i)
            other |= {aff_multiply(u, s) for u in other}
        assert interval == frozenset(other)
        for u in ball:
            assert bruhat_leq(u, v) == (u in interval)


# -- Grassmannian elements --------------------------------------------------------


def test_grassmannian_ball_a1(a1):
    names = [format_element(x) for x in grassmannian_ball(a1, 3)]
    assert names == ["id", "s1 t[-1]", "t[-1]", "s1 t[-2]"]


def test_unique_grassmannian_per_length_a1(a1):
    by_length = {}
    for x in grassmannian_ball(a1, 8):
        by_length.setdefault(length(x), []).append(x)
    assert all(len(v) == 1 for v in by_length.values())
    assert sorted(by_length) == list(range(9))


def test_coset_min(a1, a2):
    h2 = evaluate_word(a1, [0, 1])  # = t[1]
    cmin = coset_min(h2)
    # oracle: enumerate the coset and take the length-minimal element
    coset = finite_coset(h2)
    best = min(coset, key=length)
    assert sum(1 for c in coset if length(c) == length(best)) == 1
    assert cmin == best
    assert cmin == affine_simple(a1, 0)
    assert is_grassmannian(translation(a2, (-1, -1)))
    for x in affine_ball(a2, 4):
        m = coset_min(x)
        assert is_grassmannian(m)
        assert coset_min(m) == m


def test_grassmannian_means_minimal_in_coset(a2):
    for x in affine_ball(a2, 4):
        expected = x == min(finite_coset(x), key=lambda c: (length(c), format_element(c)))
        if is_grassmannian(x):
            assert expected
        else:
            assert length(coset_min(x)) < length(x)


def test_lower_interval_examples(a1):
    assert lower_interval(identity(a1)) == {identity(a1)}
    s0 = affine_simple(a1, 0)
    assert lower_interval(s0) == {identity(a1), s0}
    g3 = evaluate_word(a1, [0, 1, 0])
    assert len(lower_interval(g3)) == 6


def test_coset_translation(a1):
    s0 = affine_simple(a1, 0)
    # s_0 = s_1 t_{-alpha_vee}; its coset contains t_{alpha_vee}
    assert coset_translation(s0) == (1,)


# -- reflection roots and Demazure products ----------------------------------------


def test_reflection_roots(a1):
    assert reflection_roots(a1, [0]) == [(-2,)]
    assert reflection_roots(a1, [1]) == [(2,)]
    assert reflection_roots(a1, [1, 0]) == [(2,), (2,)]


def test_demazure_product_idempotent(a1):
    s0 = affine_simple(a1, 0)
    assert demazure_product(a1, [0, 0]) == s0
    assert demazure_product(a1, [0, 1, 0, 1]) == evaluate_word(a1, [0, 1, 0, 1])
    assert demazure_product(a1, [0, 1, 1, 0]) == evaluate_word(a1, [0, 1, 0])


def test_weyl_act_is_group_action(a2):
    from kschubert.ring import GroupAlgebraElement, RationalFunction

    f = RationalFunction(
        a2,
        GroupAlgebraElement(2, {(1, 0): 2, (-1, 1): 1}),
        ((a2.positive_roots[0], 1),),
    )
    for x in affine_ball(a2, 3)[:12]:
        for y in affine_ball(a2, 3)[:12]:
            assert weyl_act(aff_multiply(x, y), f) == weyl_act(x, weyl_act(y, f))


def test_translations_act_trivially_on_ring_values(a1, a2):
    from kschubert.ring import GroupAlgebraElement, RationalFunction

    alpha = GroupAlgebraElement.monomial(a1.positive_roots[0])
    assert weyl_act(translation(a1, (-1,)), alpha) == alpha
    f = RationalFunction.inverse_one_minus_exp(a2, a2.highest_root)
    assert weyl_act(translation(a2, (2, -3)), f) == f


# -- grammar ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["id", "s1", "s1 t[-1]", "t[-2]", "t[1]", "s1 t[3]"],
)
def test_parse_format_roundtrip_a1(a1, text):
    x = parse_element(text, a1)
    assert parse_element(format_element(x), a1) == x


def test_parse_canonicalizes(a2):
    # s1*s1 collapses to the identity
    assert parse_element("s1*s1", a2) == identity(a2)
    assert format_element(parse_element("s1*s1 t[0,0]", a2)) == "id"


def test_parse_errors(a1, a2):
    with pytest.raises(ParseError):
        parse_element("s1*", a1)
    with pytest.raises(ParseError):
        parse_element("", a1)
    with pytest.raises(ParseError):
        parse_element("t[-1] s1", a1)
    with pytest.raises(ValidationError):
        parse_element("s3 t[-1,-1]", a2)
    with pytest.raises(ValidationError):
        parse_element("s1 t[-1]", a2)  # wrong translation rank
    with pytest.raises(ValidationError):
        parse_element("s0", a1)  # affine node is not part of the grammar


def test_longest_element(a2):
    group = weyl_group(a2)
    assert group.length[group.longest] == 3
