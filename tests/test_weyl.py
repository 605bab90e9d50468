import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FINITE_TYPES,
    bruhat_leq,
    demazure_product,
    evaluate_word,
    finite_coset,
    matrix_coset_translation,
    matrix_length,
    matrix_multiply,
    matrix_pair,
    matrix_simple,
    matmul,
    reduced_word_by_lengths,
    rf_inverse_one_minus_exp,
    weyl_act,
    weyl_tables_by_matmul,
)
import kschubert
from kschubert import weyl
from kschubert.constants import pontryagin_constants
from kschubert.rootsys import MAX_WEYL_ORDER, build_root_system, identity_matrix
from kschubert.weyl import (
    ParseError,
    ValidationError,
    _word_layers,
    aff_multiply,
    affine_ball,
    affine_simple,
    coset_min,
    coset_translation,
    finite_element,
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
    weyl_group,
)

# Every type the root-system layer is tested on: the built-ins and the other
# rank-two types, given by their Cartan matrices.
SPECS = {
    "A1": "A1",
    "A2": "A2",
    "A3": "A3",
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
}
# A whole affine ball of each of them.
BALLS = [("A1", 8), ("A2", 6), ("A3", 4), ("B2", 6), ("C2", 6), ("G2", 6)]


# -- group law fixtures (these pin the semidirect-product convention) ----------


def test_s0_is_s1_t_minus_alpha_vee(a1):
    s0 = affine_simple(a1, 0)
    s1 = affine_simple(a1, 1)
    assert s0 == aff_multiply(s1, translation(a1, (-1,)))
    assert format_element(s0) == "s1 t[-1]"


def test_elements_are_immutable(a2):
    # Elements key the memos, so their fields cannot be reassigned.
    x = parse_element("s1 t[-1,0]", a2)
    for name, value in (("index", 0), ("trans", (0, 0)), ("datum", a2), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(AttributeError):
        del x.index
    assert format_element(x) == "s1 t[-1,0]" and x == parse_element("s1 t[-1,0]", a2)
    assert hash(x) == hash(parse_element("s1 t[-1,0]", a2))


def test_s1_s0_is_translation(a1):
    s0, s1 = affine_simple(a1, 0), affine_simple(a1, 1)
    assert aff_multiply(s1, s0) == translation(a1, (-1,))


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


def validate_length_convention(datum, max_length):
    """The closed length formula against the BFS layer index."""
    for dist, layer in enumerate(_word_layers(datum, max_length)):
        for x in layer:
            assert length(x) == dist, f"length formula disagrees with BFS at {x!r}"


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
        word2 = reduced_word_by_lengths(x, max)
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


def subword_products(datum, word):
    """The distinct products of the subwords of ``word``, by ``aff_multiply``."""
    out = {identity(datum)}
    for i in word:
        s = affine_simple(datum, i)
        out |= {aff_multiply(u, s) for u in out}
    return frozenset(out)


@pytest.mark.parametrize("fixture_name,max_len", [("a1", 8), ("a2", 8)])
def test_bruhat_vs_subword_enumeration(request, fixture_name, max_len):
    datum = request.getfixturevalue(fixture_name)
    ball = affine_ball(datum, max_len)
    for v in ball:
        # subword closure from two different reduced words must agree
        interval = lower_interval(v)
        assert interval == subword_products(datum, reduced_word_by_lengths(v, max))
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


def test_coset_min_examples(a1, a2):
    h2 = evaluate_word(a1, [0, 1])  # = t[1]
    cmin = coset_min(h2)
    # oracle: enumerate the coset and take the length-minimal element
    coset = finite_coset(h2)
    best = min(coset, key=length)
    assert sum(1 for c in coset if length(c) == length(best)) == 1
    assert cmin == best
    assert cmin == affine_simple(a1, 0)
    assert is_grassmannian(translation(a2, (-1, -1)))


@pytest.mark.parametrize("label,max_len", BALLS)
def test_coset_min(label, max_len):
    for x in affine_ball(build_root_system(SPECS[label]), max_len):
        m = coset_min(x)
        assert m == min(finite_coset(x), key=length)
        assert is_grassmannian(m)
        assert coset_min(m) == m


@pytest.mark.parametrize("label,max_len", BALLS)
def test_grassmannian_means_minimal_in_coset(label, max_len):
    for x in affine_ball(build_root_system(SPECS[label]), max_len):
        expected = x == min(finite_coset(x), key=lambda c: (length(c), format_element(c)))
        if is_grassmannian(x):
            assert expected
        else:
            assert length(coset_min(x)) < length(x)


@pytest.mark.parametrize("label,max_len", BALLS)
def test_weyl_walks_read_no_length(monkeypatch, label, max_len):
    # Reduced words, the Grassmannian test, coset minima, lower intervals and
    # the element grammar decide every descent by one root: with the length
    # memo raising they still give what length comparisons give.
    datum = build_root_system(SPECS[label])
    ball = affine_ball(datum, max_len)
    expected = []
    for x in ball:
        best = min(finite_coset(x), key=length)
        words = reduced_word_by_lengths(x, min), reduced_word_by_lengths(x, max)
        expected.append((words[0], x == best, best, subword_products(datum, words[1])))
    for memo in (reduced_word, is_grassmannian, lower_interval):
        memo.cache_clear()

    def no_length(group, code):
        raise AssertionError(f"length of {code} read")

    monkeypatch.setattr(weyl.WeylGroup, "code_length", no_length)
    got = [(reduced_word(x), is_grassmannian(x), coset_min(x), lower_interval(x)) for x in ball]
    assert got == expected
    for x in ball:
        back = parse_element(format_element(x), datum)
        assert back == x and hash(back) == hash(x)


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
    from kschubert.ring import GroupAlgebraElement

    alpha = GroupAlgebraElement.monomial(a1.positive_roots[0])
    assert weyl_act(translation(a1, (-1,)), alpha) == alpha
    f = rf_inverse_one_minus_exp(a2, a2.highest_root)
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


@pytest.mark.parametrize(
    "text,position",
    [("s1*s1*s", 6), ("s1*", 3), ("s1**s2", 3), ("t[]", 2), ("s2*s12x", 3), ("  s1*q t[1,1]", 5), ("s1 s1", 3),
     ("   s1 t[1,1] t[1,1]", 13), ("t[1,1] s1", 7)],
)
def test_parse_error_points_at_the_failing_chunk(a2, text, position):
    # Empty and repeated chunks included: each is located by its offset,
    # not by searching the text for it.
    with pytest.raises(ParseError) as info:
        parse_element(text, a2)
    assert info.value.position == position


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


def test_weyl_tables_are_read_only(a1):
    group = weyl_group(a1)
    s1, one = affine_simple(a1, 1).index, identity(a1).index
    x = parse_element("s1 t[-2]", a1)
    before = pontryagin_constants(x, x).entries
    tables = (
        group.elements, group.word, group.product, group.product[s1],
        group.inverse, group.cmat, group.action,
    )
    for table in tables:
        with pytest.raises(TypeError):
            table[s1] = table[one]
    with pytest.raises(TypeError):
        group.index[group.elements[s1]] = one
    alpha = a1.positive_roots[0]
    with pytest.raises(TypeError):
        group.action[s1].roots[alpha] = (alpha, False)
    assert group.inverse[s1] == s1
    assert group.action[s1].roots[alpha] == (alpha, True)
    assert pontryagin_constants(x, x).entries == before


def test_longest_element(a2):
    group = weyl_group(a2)
    assert len(group.word[group.longest]) == 3


def test_group_order_and_tables(a2):
    # Breadth-first order is (length, smallest reduced word) order.
    group = weyl_group(a2)
    order = sorted(range(len(group.elements)), key=lambda k: (len(group.word[k]), group.word[k]))
    assert order == list(range(len(group.elements)))
    assert group.word[: a2.rank + 1] == ((), (1,), (2,))
    for k, word in enumerate(group.word):
        assert evaluate_word(a2, word).index == k
        assert sum(flipped for _, flipped in group.action[k].roots.values()) == len(word)
        assert group.product[k][group.inverse[k]] == 0


@pytest.mark.parametrize("label", sorted(FINITE_TYPES))
def test_weyl_order_formula_counts_the_tabulated_group(label):
    # |W| = n! det(A) prod a_i against the classification and the search.
    spec, order = FINITE_TYPES[label]
    datum = build_root_system(spec)
    assert datum.weyl_order == len(weyl_group(datum).elements) == order


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "F4"])
def test_coroot_matrices_are_inverse_transposes(label):
    # <w mu, w lambda> = <mu, lambda> for the dot-product pairing.
    group = weyl_group(build_root_system(FINITE_TYPES[label][0]))
    for m, c in zip(group.elements, group.cmat):
        assert matmul(tuple(zip(*c)), m) == identity_matrix(len(m))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4", "F4"])
def test_column_search_matches_the_matrix_search(label):
    # One new column per element and generator gives the tables that full
    # matrix products give, in the same order.
    datum = build_root_system(FINITE_TYPES[label][0])
    group = weyl.WeylGroup(datum)
    elements, index, word, inverse, cmat = weyl_tables_by_matmul(datum)
    assert group.elements == elements and dict(group.index) == index
    assert group.word == word and group.inverse == inverse and group.cmat == cmat


def test_a_group_too_large_to_tabulate_is_refused():
    e7 = [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0], [0, -1, -1, 2, -1, 0, 0],
          [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, -1, 2]]
    datum = build_root_system(e7)
    assert datum.weyl_order == 2_903_040 > MAX_WEYL_ORDER
    with pytest.raises(ValueError, match="2903040 elements"):
        weyl.WeylGroup(datum)


# -- the index route against the matrix route ---------------------------------------


@pytest.mark.parametrize(
    "label,max_len", [("A1", 8), ("A2", 6), ("A3", 4), ("B2", 6), ("C2", 6), ("G2", 6)]
)
def test_index_route_matches_matrix_route(label, max_len):
    """Over a whole affine ball: products with every affine generator on both
    sides, the left product on codes (index, translation), length, left
    descent, the Grassmannian test, the coset translation, and the element
    grammar's round trip."""
    datum = build_root_system(SPECS[label])
    group = weyl_group(datum)
    gens = [affine_simple(datum, i) for i in range(datum.rank + 1)]
    gens_m = [matrix_simple(datum, i) for i in range(datum.rank + 1)]
    assert [matrix_pair(s) for s in gens] == gens_m
    for x in affine_ball(datum, max_len):
        xm = matrix_pair(x)
        lx = matrix_length(datum, xm)
        assert length(x) == group.code_length((x.index, x.trans)) == lx
        assert coset_translation(x) == matrix_coset_translation(xm)
        left, right = [], []
        for i, (s, sm) in enumerate(zip(gens, gens_m)):
            sx, xs = matrix_multiply(sm, xm), matrix_multiply(xm, sm)
            product = aff_multiply(s, x)
            assert matrix_pair(product) == sx
            assert matrix_pair(aff_multiply(x, s)) == xs
            assert group.left_code(i, (x.index, x.trans)) == (product.index, product.trans)
            left.append(matrix_length(datum, sx))
            right.append(matrix_length(datum, xs))
        if lx:
            assert group.code_descent((x.index, x.trans)) == next(i for i, l in enumerate(left) if l < lx)
        assert is_grassmannian(x) == all(l > lx for l in right[1:])
        back = parse_element(format_element(x), datum)
        assert back == x and hash(back) == hash(x)
        assert aff_multiply(finite_element(datum, xm[0]), translation(datum, x.trans)) == x


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_descent_by_one_root_matches_lengths(label):
    # s_i x < x read off the one root w^{-1}(alpha_i) (``descends``) against
    # two closed-formula lengths, for every letter i, every finite part and
    # every translation in [-3, 3]^rank; the left descent is the first hit.
    datum = build_root_system(SPECS[label])
    group = weyl_group(datum)
    for lam in itertools.product(range(-3, 4), repeat=datum.rank):
        for k in range(len(group.elements)):
            code = (k, lam)
            lx = group.code_length(code)
            shorter = [group.code_length(group.left_code(i, code)) < lx for i in range(datum.rank + 1)]
            assert [group.descends(i, code) for i in range(datum.rank + 1)] == shorter, code
            if lx:
                assert group.code_descent(code) == shorter.index(True), code


# -- properties on random words -------------------------------------------------------


def _words(datum, letters):
    return st.lists(st.sampled_from(letters), max_size=2 * len(datum.positive_roots) + 2)


@pytest.mark.parametrize("label", sorted(SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_laws_on_random_words(label, data):
    datum = build_root_system(SPECS[label])
    affine = range(datum.rank + 1)
    x, y, z = (evaluate_word(datum, data.draw(_words(datum, affine))) for _ in range(3))
    assert aff_multiply(aff_multiply(x, y), z) == aff_multiply(x, aff_multiply(y, z))
    s = affine_simple(datum, data.draw(st.sampled_from(affine)))
    assert aff_multiply(s, s) == identity(datum)
    assert aff_multiply(aff_multiply(x, s), s) == x
    assert abs(length(aff_multiply(s, x)) - length(x)) == 1


@pytest.mark.parametrize("label", sorted(SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matrix_parse_and_product_give_one_element(label, data):
    """One element built from its matrix, from its string and from products
    is equal and hashes equal, so the memos never hold it twice."""
    datum = build_root_system(SPECS[label])
    word = data.draw(_words(datum, range(1, datum.rank + 1)))
    lam = data.draw(st.tuples(*[st.integers(-3, 3)] * datum.rank))
    matrix = identity_matrix(datum.rank)
    for i in word:
        matrix = matmul(matrix, matrix_simple(datum, i)[0])
    text = ("*".join(f"s{i}" for i in word) or "id") + " t[" + ",".join(map(str, lam)) + "]"
    built = [
        aff_multiply(finite_element(datum, matrix), translation(datum, lam)),
        parse_element(text, datum),
        aff_multiply(evaluate_word(datum, word), translation(datum, lam)),
    ]
    assert built[0] == built[1] == built[2]
    assert len({hash(x) for x in built}) == 1
    assert len(set(built)) == 1


def test_finite_element_rejects_matrices_outside_w(a2):
    with pytest.raises(ValueError, match=r"\(\(5, 0\), \(0, 5\)\) is not the matrix"):
        finite_element(a2, ((5, 0), (0, 5)))
    assert finite_element(a2, [[-1, 0], [1, 1]]) == affine_simple(a2, 1)


# Set-up work of WeylGroup(datum).  It made 167 (A3) and 71 (G2)
# rootsys.matmul calls before its tables moved to indices, and 95 and 35
# after, one per element and generator.  The search now multiplies no
# matrices and unpacks one column per element found after the identity; the
# Cayley rows and actions are built on first lookup.  A table added later
# must not move work into set-up.
GUARDED_LABELS = ("A3", "G2")


@pytest.mark.parametrize("label", GUARDED_LABELS)
def test_weyl_group_setup_matmul_guard(monkeypatch, label):
    calls = {"unpack": 0, "matvec": 0, "row": 0, "action": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(weyl, "unpack", counted("unpack", weyl.unpack))
    monkeypatch.setattr(weyl, "matvec", counted("matvec", weyl.matvec))
    monkeypatch.setattr(weyl.WeylGroup, "_product_row", counted("row", weyl.WeylGroup._product_row))
    monkeypatch.setattr(weyl.WeylGroup, "_action", counted("action", weyl.WeylGroup._action))
    group = weyl.WeylGroup(build_root_system(SPECS[label]))
    assert not hasattr(weyl, "matmul")
    assert calls["unpack"] == len(group.elements) - 1
    assert calls["matvec"] == calls["row"] == calls["action"] == 0
    for _ in range(2):
        assert group.product[2][group.inverse[2]] == 0
        assert group.action[group.longest].norm > 0
    assert (calls["row"], calls["action"]) == (1, 1)


@pytest.mark.parametrize("label", GUARDED_LABELS)
def test_weyl_group_builds_no_coded_tables(label):
    # The coded product table, the one-root descent table and the length
    # memo are built on first use, so set-up (``setup_s``) pays for none;
    # a descent reads neither the product table nor a length.
    datum = build_root_system(SPECS[label])
    group = weyl.WeylGroup(datum)
    assert "left" not in vars(group) and "left_roots" not in vars(group) and not group._lengths
    assert group.code_length((group.longest, (0,) * datum.rank)) == len(group.word[group.longest])
    assert "left" not in vars(group) and len(group._lengths) == 1
    assert group.code_descent((group.longest, (0,) * datum.rank)) == 1
    assert "left" not in vars(group) and len(group._lengths) == 1
    assert len(group.left) == datum.rank + 1 and group.left[1][1] is None


# The timed region of a cold ``kschubert verify --suite all``, after the
# benchmark's set-up (the A1 and A2 Weyl groups): every descent, Grassmannian
# test and coset minimum is read off one root, so no length is computed, and
# the walks build elements only for what they return (1,230 elements were
# built when each step of a walk was an element; 374 are now).
VERIFY_COUNTS = (
    "import contextlib, io, json\n"
    "from kschubert import cli, weyl\n"
    "from kschubert.rootsys import build_root_system\n"
    "for label in ('A1', 'A2'):\n"
    "    weyl.weyl_group(build_root_system(label))\n"
    "counts = {'lengths': 0, 'elements': 0}\n"
    "code_length, init = weyl.WeylGroup.code_length, weyl.AffineWeylElement.__init__\n"
    "def counted_length(group, code):\n"
    "    counts['lengths'] += 1\n"
    "    return code_length(group, code)\n"
    "def counted_init(x, *args):\n"
    "    counts['elements'] += 1\n"
    "    init(x, *args)\n"
    "weyl.WeylGroup.code_length = counted_length\n"
    "weyl.AffineWeylElement.__init__ = counted_init\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    status = cli.main(['verify', '--suite', 'all', '--json'])\n"
    "print(json.dumps([status, counts]))\n"
)


def test_cold_verify_reads_no_length():
    src = str(Path(kschubert.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", VERIFY_COUNTS], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    status, counts = json.loads(done.stdout)
    assert status == 0 and counts["lengths"] == 0
    assert 0 < counts["elements"] <= 400
