import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    LOC,
    TBASIS,
    KElement,
    b_row_subword,
    bruhat_leq,
    cold,
    coset_sums,
    counting_e_rows,
    demazure_product,
    e_row_subword,
    k_mul,
    kappa,
    kel_add,
    kel_scalar,
    kel_scale,
    projected_row,
    reduced_word_by_lengths,
    rf_inverse_one_minus_exp,
    t_element,
    t_expansion,
    t_in_loc,
    t_row_by_upper_sums,
    t_sum_in_loc,
    weyl_act,
    y_element,
    y_expansion_by_elements,
    y_in_loc,
)
import kschubert
from kschubert import nilhecke
from kschubert.constants import _finite_localization_row, pontryagin_constants
from kschubert.ring import GroupAlgebraElement, RationalFunction, gae_to_json, lift, rf_to_json
from kschubert.rootsys import build_root_system, level_zero_root
from kschubert.nilhecke import (
    b_cosets,
    b_lift,
    e_row,
    k_class,
    l_class,
    loc_row,
    t_row,
    translation_cosets,
    y_expansion,
)
from kschubert.weyl import (
    affine_ball,
    affine_simple,
    aff_multiply,
    coset_min,
    finite_element,
    format_element,
    grassmannian_ball,
    identity,
    is_grassmannian,
    length,
    lower_interval,
    parse_element,
    reduced_word,
    translation,
    weyl_group,
)

G = GroupAlgebraElement


def el(datum, text):
    return parse_element(text, datum)


# -- generators and their relations ---------------------------------------------


def test_t_squared_is_minus_t(a1, a2):
    for datum in (a1, a2):
        for i in range(datum.rank + 1):
            T = t_element(datum, i)
            assert k_mul(T, T) == kel_scale(T, -G.one(datum.rank))


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
    expect = -rf_inverse_one_minus_exp(a1, alpha)
    assert T1.terms[identity(a1)] == expect


def test_y_s0_expansion(a1):
    alpha = a1.positive_roots[0]
    row = loc_row(affine_simple(a1, 0))
    inv = rf_inverse_one_minus_exp(a1, alpha)
    assert row[identity(a1)] == inv
    assert row[affine_simple(a1, 0)] == inv * G.monomial(alpha, -1)


def test_k_mul_one_twist(a1):
    # (1 (x) s_1)(e^a (x) id) = e^{-a} (x) s_1
    s1 = affine_simple(a1, 1)
    a = KElement(a1, LOC, {s1: RationalFunction.one(a1)})
    b = kel_scalar(a1, RationalFunction.from_gae(a1, G.monomial((2,))))
    prod = k_mul(a, b)
    assert prod == KElement(
        a1, LOC, {s1: RationalFunction.from_gae(a1, G.monomial((-2,)))}
    )


def test_kelements_are_immutable_values(a1):
    # The word-product route's memos hand one instance to every caller: no
    # field can be reassigned or deleted, and the terms are read-only.
    s1, one = affine_simple(a1, 1), RationalFunction.one(a1)
    a = KElement(a1, LOC, {s1: one, identity(a1): RationalFunction.from_gae(a1, G(a1.rank))})
    for name, value in (("datum", a1), ("basis", TBASIS), ("terms", {}), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    with pytest.raises(AttributeError):
        del a.terms
    with pytest.raises(TypeError):
        a.terms[s1] = one
    assert dict(a.terms) == {s1: one} and a == KElement(a1, LOC, {s1: one})
    assert a != KElement(a1, TBASIS, {s1: one}) and KElement(a1, LOC) == KElement(a1, LOC, {})


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
    row = loc_row(s0)
    inv = rf_inverse_one_minus_exp(a1, alpha)
    assert row[identity(a1)] == inv
    assert row[s0] == inv * G.monomial(alpha, -1)
    # coset sum at t_{alpha_vee}
    assert b_cosets(s0)[(1,)] == inv * G.monomial(alpha, -1)


def test_b_row_identity(a1):
    assert loc_row(identity(a1)) == {identity(a1): RationalFunction.one(a1)}


def test_e_row_identity_and_s0(a1):
    assert e_row(identity(a1)) == {identity(a1): G.one(1)}
    row = e_row(affine_simple(a1, 0))
    assert row[identity(a1)] == G.monomial((-2,))
    assert row[affine_simple(a1, 0)] == G.one(1) - G.monomial((-2,))


def test_e_row_coset_value_from_square(a1):
    # e_{t_{2 alpha_vee}, [t_{-alpha_vee}]} = e^{-a} (1 - e^{-a})^2
    cosets = translation_cosets((2,), identity(a1))
    ema = G.monomial((-2,))
    expect = ema * (G.one(1) - ema) * (G.one(1) - ema)
    assert cosets[coset_min(translation(a1, (-1,)))] == expect


def test_b_row_supported_on_lower_interval(a2):
    for x in affine_ball(a2, 4):
        interval = lower_interval(x)
        assert set(loc_row(x)) <= set(interval)
        assert set(e_row(x)) <= set(interval)


def test_e_rows_are_polynomial_by_type(a2):
    for x in affine_ball(a2, 4):
        for value in e_row(x).values():
            assert isinstance(value, G)


# Rank-two types without a built-in label, given by their Cartan matrices.
B2 = [[2, -2], [-1, 2]]
C2 = [[2, -1], [-2, 2]]
G2 = [[2, -1], [-3, 2]]


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 8), ("A2", 6), ("A3", 4), (B2, 6), (C2, 6), (G2, 6)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_coded_kernel_matches_the_element_kernel(spec, max_len):
    # The e kernel on codes against the element-keyed recursion it
    # replaced: the full e row of every x of the ball, and the coset row of
    # t_mu y_y, keyed by z = v w0, for every mu that the ball's b coset sums
    # reach and every Grassmannian y of the ball.
    datum = build_root_system(spec)
    group = weyl_group(datum)
    w0 = finite_element(datum, group.elements[group.longest])
    one = identity(datum)
    ball = affine_ball(datum, max_len)
    for x in ball:
        assert e_row(x) == y_expansion_by_elements(x, one)
    mus = {mu for x in ball for mu in b_cosets(x)}
    for y in (y for y in ball if is_grassmannian(y)):
        for mu in mus:
            row = y_expansion_by_elements(translation(datum, mu), aff_multiply(y, w0))
            assert translation_cosets(mu, y) == {aff_multiply(v, w0): c for v, c in row.items()}, (mu, y)


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 5), ("A2", 4), ("A3", 4), (B2, 6), (C2, 6), (G2, 6)],
    ids=["a1-5", "a2-4", "a3-4", "B2-6", "C2-6", "G2-6"],
)
def test_subword_oracles_agree(spec, max_len):
    for x in affine_ball(build_root_system(spec), max_len):
        assert b_row_subword(x) == loc_row(x)
        assert e_row_subword(x) == e_row(x)


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 8), ("A2", 6), ("A3", 4), (B2, 6), (C2, 6), (G2, 6)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_loc_rows_match_the_full_row_route(spec, max_len):
    # loc_row scatters one generator at a time, and b_lift projects as it
    # goes; the oracle multiplies whole rows by the generators with k_mul
    # and projects the finished row with kappa.
    for x in affine_ball(build_root_system(spec), max_len):
        full_y, full_t = y_in_loc(x), t_in_loc(x)
        assert loc_row(x) == full_y.terms == b_row_subword(x), x
        assert b_cosets(x) == {t.trans: c for t, c in kappa(full_y).terms.items()}, x
        assert projected_row(x, False) == kappa(full_t), x


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 8), ("A2", 6), ("A3", 4), (B2, 6), (C2, 6), (G2, 6)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_b_lift_is_the_lift_of_the_divided_coset_sums(spec, max_len):
    # b_lift divides the kernel's numerators jointly down to D_x: the same
    # D and numerators as ring.lift of the divided projected rows of the
    # full-row route, y side and T side, on whole balls.
    datum = build_root_system(spec)
    for x in affine_ball(datum, max_len):
        for y_side, full in ((True, y_in_loc(x)), (False, t_in_loc(x))):
            den, nums = b_lift(x, y_side)
            ref_den, ref_nums = lift(datum, {t.trans: c for t, c in kappa(full).terms.items()})
            assert (den, nums) == (ref_den, ref_nums), (x, y_side)


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 10), ("A2", 7), ("A3", 5), (B2, 7), (C2, 7), (G2, 7)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_t_side_lift_is_empty_exactly_off_the_grassmannian_set(spec, max_len):
    # kappa(T_x) vanishes exactly when x is not Grassmannian; there b_lift
    # gives the empty lift instead of dividing an empty row.
    datum = build_root_system(spec)
    for x in affine_ball(datum, max_len):
        den, nums = b_lift(x, False)
        assert bool(nums) == is_grassmannian(x), x
        if not nums:
            assert den == (), x
    assert b_lift(affine_simple(build_root_system("A1"), 1), False) == ((), {})


@pytest.mark.parametrize(
    "spec,max_len,equal,total",
    [("A1", 10, 11, 11), ("A2", 9, 30, 30), ("A3", 6, 18, 23), (B2, 8, 7, 18), (C2, 8, 7, 18),
     (G2, 8, 6, 13)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_running_denominator_carries_D_x(spec, max_len, equal, total):
    # The b kernel's running denominator D is a multiple of D_x, the lcm of
    # the divided coset sums, on every Grassmannian element of these balls,
    # and equal to it on all of A1 and A2 but on only some of A3, B2, C2 and
    # G2.  A larger D would cost the pair stage term products and coset
    # passes, which is why b_lift divides down to D_x, by one joint division
    # of the running numerators: its D, key order and numerators equal
    # ring.lift of the reduced coset sums on every element, the ones with a
    # larger running D included.
    datum = build_root_system(spec)
    kernel = nilhecke._kernel(datum)
    ball = grassmannian_ball(datum, max_len)
    same = 0
    for x in ball:
        den, nums = b_lift(x, True)
        ref_den, ref_nums = lift(datum, b_cosets(x))
        assert den == ref_den and list(nums.items()) == list(ref_nums.items()), x
        lifted = dict(den)
        running, _ = nilhecke._loc_row(kernel, (x.index, x.trans), True, True)
        assert all(running.get(root, 0) >= m for root, m in lifted.items()), x
        same += running == lifted
    assert (same, len(ball)) == (equal, total)


def test_coset_rows_take_no_weyl_action_and_no_length(monkeypatch, a2):
    # The e kernel keeps rows in the frame of x and reads descents off one
    # root, so from a cold kernel the coset rows of the scan (A2 Grassmannian
    # ball of length <= 6, pairs x <= y, every mu of x's b coset sums) apply
    # no Weyl action and compute no length; the kernel builds 590 rows and
    # holds the 136 its calls returned or started from (454 of each while it
    # kept every prefix).  Counts, not times.
    ball = grassmannian_ball(a2, 6)
    reads = [(mu, y) for i, x in enumerate(ball) for mu in b_lift(x, True)[1] for y in ball[i:]]
    warm = [nilhecke.translation_cosets(mu, y) for mu, y in reads]
    cold()
    e_rows = counting_e_rows(monkeypatch, a2)
    lengths, acts, act = {}, [], G.act
    monkeypatch.setattr(weyl_group(a2), "_lengths", lengths)  # a cold length memo
    monkeypatch.setattr(G, "act", lambda g, action: acts.append(1) or act(g, action))
    assert [nilhecke.translation_cosets(mu, y) for mu, y in reads] == warm
    assert (len(acts), len(lengths)) == (0, 0)
    assert e_rows() == (136, 590)


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 8), ("A2", 5), ("A3", 3), (B2, 4), (C2, 4), (G2, 4)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_kernels_keep_only_the_rows_they_hand_out(monkeypatch, spec, max_len):
    # From cold, every product x <= y and every k and l class of the
    # Grassmannian ball, and the full b row of its last element, whose
    # prefixes nothing else reads on that side: each row either kernel
    # memoizes is a base row (the identity row of an e start, the three b
    # base rows) or a row that some call into the kernel returned, and every
    # returned row is memoized.
    datum = build_root_system(spec)
    ball = grassmannian_ball(datum, max_len)
    cold()
    kernel = nilhecke._kernel(datum)
    bases, returned = set(kernel.loc), set()
    for name in ("_y_row", "_loc_row"):
        run = getattr(nilhecke, name)
        monkeypatch.setattr(nilhecke, name, lambda k, *key, run=run: returned.add(key) or run(k, *key))
    for i, x in enumerate(ball):
        for y in ball[i:]:
            pontryagin_constants(x, y)
        k_class(x), l_class(x)
    loc_row(ball[-1])
    bases |= {key for key in kernel.rows if key[0] == kernel.one}
    assert set(kernel.rows) | set(kernel.loc) == returned | bases


def test_b_rows_from_cold_take_no_rational_arithmetic(monkeypatch, a2):
    # The 16 first factors of the scan ball (A2 Grassmannian, length <= 6),
    # b coset sums rebuilt from cold: no RationalFunction sum or product,
    # one joint division (ring.divide_jointly) per projected row, and 15
    # prefix rows built (each x peels to the one before it) with 864 term
    # products in the kernel.  Counts, not times.
    xs = grassmannian_ball(a2, 6)
    warm = [b_cosets(x) for x in xs]
    cold()
    rational, divisions, products = [], [], []
    for name in ("__add__", "__mul__"):
        op = getattr(RationalFunction, name)
        monkeypatch.setattr(RationalFunction, name, lambda a, b, op=op: rational.append(1) or op(a, b))
    divide, mul_add = nilhecke.divide_jointly, nilhecke.mul_add
    monkeypatch.setattr(nilhecke, "divide_jointly", lambda *a: divisions.append(1) or divide(*a))

    def counting(acc, a, b, bound=0):
        products.append(len(a.terms) * len(b.terms))
        return mul_add(acc, a, b, bound)

    monkeypatch.setattr(nilhecke, "mul_add", counting)
    assert [b_cosets(x) for x in xs] == warm
    prefixes = len(nilhecke._kernel(a2).loc) - 3  # the three base rows
    assert (len(xs), len(rational), len(divisions)) == (16, 0, 16)
    assert (prefixes, sum(products)) == (15, 864)


def shallow_child(imports: str, read: str):
    """The JSON that a fresh process prints for the expression ``read``,
    evaluated at x = t[-60] in A1 under a recursion limit of 100."""
    script = (
        f"import json, sys\n{imports}\n"
        "from kschubert.rootsys import build_root_system\n"
        "from kschubert.weyl import translation\n"
        "x = translation(build_root_system('A1'), (-60,))\n"
        "sys.setrecursionlimit(100)\n"
        f"print(json.dumps({read}))\n"
    )
    src = str(Path(kschubert.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_b_kernel_takes_no_stack_frame_per_letter(a1):
    # The b kernel walks the word in a loop: under a recursion limit of 100,
    # a fresh process still gets the b coset sums of an A1 translation of
    # length 120, the same as this one.
    x = translation(a1, (-60,))
    assert length(x) == 120
    got = shallow_child(
        "from kschubert.nilhecke import b_cosets\nfrom kschubert.ring import rf_to_json",
        "[[list(mu), rf_to_json(f)] for mu, f in b_cosets(x).items()]",
    )
    assert got == [[list(mu), rf_to_json(f)] for mu, f in b_cosets(x).items()]


def test_e_kernel_takes_no_stack_frame_per_letter(a1):
    # The e kernel walks the word in a loop too: under a recursion limit of
    # 100, a fresh process still gets the e row, the T-row and the coset row
    # from the identity of an A1 translation of length 120, the same as this
    # one.
    x = translation(a1, (-60,))
    assert length(x) == 120
    got = shallow_child(
        "from kschubert.nilhecke import e_row, t_row, translation_cosets\n"
        "from kschubert.ring import gae_to_json\n"
        "from kschubert.weyl import format_element, identity",
        "[{format_element(v): gae_to_json(c) for v, c in row.items()}"
        " for row in (e_row(x), t_row(x), translation_cosets(x.trans, identity(x.datum)))]",
    )
    rows = (e_row(x), t_row(x), translation_cosets(x.trans, identity(a1)))
    assert got == [{format_element(v): gae_to_json(c) for v, c in row.items()} for row in rows]
    assert all(got)


def test_e_kernel_refuses_a_walk_over_the_limit(monkeypatch, a1):
    # A walk one letter longer than WALK_LIMIT down to a known row is refused
    # before any row is built; one of WALK_LIMIT letters is not.  From a cold
    # kernel the e row of s1 t[500] (length 1001) walks to the identity; the
    # coset row of t[-501] (length 1002) walks to the memoized row of s0
    # from the same start, the last letter of its word.
    assert nilhecke.WALK_LIMIT == 1000
    cold()
    kernel = nilhecke._kernel(a1)
    x = el(a1, "s1 t[500]")
    assert length(x) == 1001
    with pytest.raises(nilhecke.WalkLimitError, match="length 1001"):
        e_row(x)
    assert kernel.rows == {}
    mu, start = (-501,), kernel.times_w0(kernel.one)
    _, steps = kernel.group.walk((0, mu), kernel.one.__eq__)
    assert len(steps) == 1002 and steps[0][0] == 0
    nilhecke._y_row(kernel, steps[0][1], start, True)
    warm = dict(kernel.rows)
    assert len(warm) == 2
    with pytest.raises(nilhecke.WalkLimitError, match="length 1002"):
        translation_cosets(mu, identity(a1))
    assert kernel.rows == warm and translation_cosets.cache_info().currsize == 0
    # The same boundary under a small limit: a walk of 4 letters builds its
    # 5 rows and keeps 2, the identity row and the one it returns.
    monkeypatch.setattr(nilhecke, "WALK_LIMIT", 4)
    cold()
    e_rows = counting_e_rows(monkeypatch, a1)
    with pytest.raises(nilhecke.WalkLimitError):
        y_expansion(el(a1, "s1 t[2]"), True)
    assert e_rows() == (0, 0)
    assert y_expansion(el(a1, "t[-2]"), True) == e_row_subword(el(a1, "t[-2]"))
    assert e_rows() == (2, 5)


@pytest.mark.parametrize("fixture_name,max_len", [("a1", 5), ("a2", 4)])
def test_rows_independent_of_reduced_word(request, fixture_name, max_len):
    datum = request.getfixturevalue(fixture_name)
    for x in affine_ball(datum, max_len):
        other = reduced_word_by_lengths(x, max)
        assert b_row_subword(x, other) == loc_row(x)
        assert e_row_subword(x, other) == e_row(x)


def test_matrix_inverse_identity_small(a1):
    ball = affine_ball(a1, 4)
    zero = RationalFunction.from_gae(a1, G(a1.rank))
    for x in ball:
        row = loc_row(x)
        for z in ball:
            total = zero
            for v, b in row.items():
                e = e_row(v).get(z)
                if e is not None:
                    total = total + b * e
            expected = RationalFunction.one(a1) if x == z else zero
            assert total == expected


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 8), ("A2", 6), ("A3", 4), (B2, 6), (C2, 6), (G2, 6)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_e_cosets_match_full_rows(spec, max_len):
    # The coset row of t_mu at y = id reads t_mu . y_{w0}; the reference
    # groups the full e row.  Since s_j y_{w0} = y_{w0}, right
    # multiplication by W leaves the coset sums alone.  Every mu that the
    # b coset sums of the ball reach.
    datum = build_root_system(spec)
    group = weyl_group(datum)
    finite = [finite_element(datum, m) for m in group.elements]
    one = identity(datum)
    for mu in {mu for x in affine_ball(datum, max_len) for mu in b_cosets(x)}:
        t = translation(datum, mu)
        sums = translation_cosets(mu, one)
        assert sums == coset_sums(e_row(t)), mu
        assert all(is_grassmannian(z) for z in sums)
        for w in finite:
            assert coset_sums(e_row(aff_multiply(t, w))) == sums


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 5), ("A2", 4), ("A3", 4), (B2, 6), (C2, 6), (G2, 6)],
    ids=["a1-5", "a2-4", "a3-4", "B2-6", "C2-6", "G2-6"],
)
def test_coset_rows_fold_the_y_side_sum(spec, max_len):
    # The lemma under the product route: w y_{w0} = y_{w0} for finite w, so
    # t_mu y_y y_{w0} = sum_nu b_{y,[nu]} t_{mu+nu} y_{w0}, and the coset row
    # of t_mu y_y is the b-weighted sum of the coset e rows of t_{mu+nu}.
    # Checked for every Grassmannian y of the ball and every mu that the
    # b coset sums of the ball reach.  The sum is formed over y's common
    # denominator and reduced once per entry.
    datum = build_root_system(spec)
    one = identity(datum)
    ball = grassmannian_ball(datum, max_len)
    mus = {mu for x in ball for mu in b_cosets(x)}
    for y in ball:
        den, nums = lift(datum, b_cosets(y))
        for mu in mus:
            sums = {}
            for nu, num in nums.items():
                sigma = tuple(m + n for m, n in zip(mu, nu))
                for z, e in translation_cosets(sigma, one).items():
                    sums[z] = sums[z] + num * e if z in sums else num * e
            expected = {z: RationalFunction(datum, c, den) for z, c in sums.items()}
            row = translation_cosets(mu, y)
            assert {z: RationalFunction.from_gae(datum, c) for z, c in row.items()} == {
                z: c for z, c in expected.items() if c
            }
    with pytest.raises(ValueError):
        translation_cosets((0,) * datum.rank, affine_simple(datum, 1))


def test_demazure_convolution_of_translations(a1, a2):
    # e_{t_lam t_mu, z} = sum over u * v = z of e_{t_lam, u} e_{t_mu, v}:
    # translations act trivially on small-torus scalars, and y_u y_v = y_{u*v}.
    a2_box = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    cases = [
        (a1, [(k,) for k in range(-3, 4)], [(k,) for k in range(-3, 4)]),
        (a2, a2_box, [(-1, -1), (1, 0), (0, 1)]),
    ]
    for datum, lams, mus in cases:
        for lam in lams:
            for mu in mus:
                t_lam, t_mu = translation(datum, lam), translation(datum, mu)
                expected = {}
                for u, eu in e_row(t_lam).items():
                    for v, ev in e_row(t_mu).items():
                        z = demazure_product(datum, reduced_word(u) + reduced_word(v))
                        expected[z] = expected[z] + eu * ev if z in expected else eu * ev
                expected = {z: c for z, c in expected.items() if c}
                assert e_row(aff_multiply(t_lam, t_mu)) == expected


def test_memoized_rows_are_read_only(a1):
    x = translation(a1, (2,))
    g = translation(a1, (-1,))
    s1 = affine_simple(a1, 1)
    one = identity(a1)
    reads = [
        (e_row, x, one),
        (lambda u: y_expansion(u, True), x, one),
        (lambda mu: translation_cosets(mu, one), (2,), coset_min(g)),
        (lambda mu: translation_cosets(mu, g), (2,), coset_min(g)),
        (b_cosets, x, (1,)),
        (lambda u: b_lift(u, True)[1], x, (1,)),
        (lambda w: b_lift(w, False)[1], g, (-1,)),
        (loc_row, x, one),
        (k_class, g, g),
        (l_class, g, g),
        (t_row, x, one),
        (_finite_localization_row, s1, s1),
    ]
    for read, arg, key in reads:
        row = read(arg)
        before = dict(row)
        with pytest.raises(TypeError):
            row[key] = row[key] + row[key]
        assert read(arg) == before
    # The group-algebra values inside the rows are read-only too.
    values = [
        e_row(x)[one],
        translation_cosets((2,), one)[coset_min(g)],
        b_cosets(x)[(1,)].num,
        b_lift(x, True)[1][(1,)],
        k_class(g)[g].num,
        t_row(x)[one],
        _finite_localization_row(s1)[s1],
    ]
    for value in values:
        weight, coeff = next(iter(value.terms.items()))
        with pytest.raises(TypeError):
            value.terms[weight] = coeff + 1


# -- expansion in the T-basis -----------------------------------------------------


def test_y_s0_in_tbasis(a1):
    s0 = affine_simple(a1, 0)
    t = t_expansion(y_in_loc(s0))
    one = RationalFunction.one(a1)
    assert t == KElement(a1, TBASIS, {identity(a1): one, s0: one})


@pytest.mark.parametrize("basis", [TBASIS, "y", LOC])
def test_roundtrip_conversions(a2, basis):
    # The same coefficients on group elements, on T_x or on y_x, written in
    # the localization basis: t_expansion and the sum of T_v in the
    # localization basis are mutually inverse, and a T- or y-sum expands as
    # its definition says.
    x = el(a2, "s1*s2 t[-1,-1]")
    y = el(a2, "s2 t[-1,-1]")
    coefficients = {
        x: RationalFunction.from_gae(a2, G.monomial((1, 0))),
        y: RationalFunction.one(a2) + RationalFunction.one(a2),
    }
    if basis == LOC:
        start = KElement(a2, LOC, coefficients)
    elif basis == TBASIS:
        start = t_sum_in_loc(KElement(a2, TBASIS, coefficients))
    else:
        start = kel_add(*(kel_scale(y_in_loc(v), c) for v, c in coefficients.items()))
    t = t_expansion(start)
    assert t_sum_in_loc(t) == start
    if basis == TBASIS:
        assert t == KElement(a2, TBASIS, coefficients)
    if basis == "y":
        spreads = (
            KElement(a2, TBASIS, dict.fromkeys(lower_interval(v), c))
            for v, c in coefficients.items()
        )
        assert t == kel_add(*spreads)


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 10), ("A2", 6), ("A3", 5), (B2, 6), (C2, 6), (G2, 6)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_t_row_is_the_upper_sum_of_the_e_row(spec, max_len):
    # The T side of the e kernel against the e row spread over lower
    # intervals (u = sum_v e_{u,v} y_v, y_v = sum_{w <= v} T_w), on every
    # element of whole affine balls.
    datum = build_root_system(spec)
    for u in affine_ball(datum, max_len):
        assert t_row(u) == t_row_by_upper_sums(u), u


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 10), ("A2", 6), ("A3", 4), (B2, 6), (C2, 6), (G2, 6)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_classes_match_the_divided_then_lifted_route(spec, max_len):
    # k and l classes sum the joint lift of the projected b row times the
    # T-rows of its translations; the route they replaced divides that row
    # into canonical coefficients and lifts them again (t_expansion).  Every
    # Grassmannian element of whole balls.
    datum = build_root_system(spec)
    for w in grassmannian_ball(datum, max_len):
        assert k_class(w) == t_expansion(projected_row(w, False)).terms, w
        assert l_class(w) == t_expansion(projected_row(w, True)).terms, w


def test_group_element_in_ybasis_has_e_coefficients(a1):
    # u = sum_v e_{u,v} y_v and y_v = sum_{w <= v} T_w
    u = translation(a1, (2,))
    loc = KElement(a1, LOC, {u: RationalFunction.one(a1)})
    expected = KElement(a1, TBASIS)
    for v, e in e_row(u).items():
        spread = {w: RationalFunction.from_gae(a1, e) for w in lower_interval(v)}
        expected = kel_add(expected, KElement(a1, TBASIS, spread))
    assert t_expansion(loc) == expected


@pytest.mark.parametrize(
    "spec,bound", [("A1", 6), ("A2", 4), (B2, 4), (G2, 4)], ids=["A1", "A2", "B2", "G2"]
)
def test_t_expansion_over_balls(spec, bound):
    datum = build_root_system(spec)
    for w in grassmannian_ball(datum, bound):
        for y_side in (False, True):
            a = projected_row(w, y_side)
            assert t_sum_in_loc(t_expansion(a)) == a, w
    one, zero = RationalFunction.one(datum), RationalFunction.from_gae(datum, G(datum.rank))
    for u in affine_ball(datum, bound):
        row = e_row(u)
        t = t_expansion(KElement(datum, LOC, {u: one}))
        for w in set(t.terms) | lower_interval(u):
            total = sum((e for v, e in row.items() if bruhat_leq(w, v)), G(datum.rank))
            assert t.terms.get(w, zero) == RationalFunction.from_gae(datum, total), (u, w)
    with pytest.raises(ValueError):
        t_expansion(KElement(datum, TBASIS, {identity(datum): one}))


def test_class_expansions_make_no_rational_additions(monkeypatch):
    # The classes, from cold, and the route they replaced (t_expansion) sum
    # rational multiples of polynomial T-rows over one common denominator
    # (ring.combine): a RationalFunction sum per term, with its lcm lift and
    # trial divisions, would show here as an __add__ call.
    balls = [grassmannian_ball(build_root_system("A1"), 6), grassmannian_ball(build_root_system("A2"), 4)]
    inputs = [projected_row(w, y_side) for ball in balls for w in ball for y_side in (False, True)]
    cold()
    calls = []
    add = RationalFunction.__add__

    def counting(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(RationalFunction, "__add__", counting)
    for a in inputs:
        assert t_expansion(a).terms
    for w in (w for ball in balls for w in ball):
        assert k_class(w) and l_class(w)
    assert not calls


@pytest.mark.parametrize(
    "spec", ["A2", "A3", B2, C2, G2], ids=["A2", "A3", "B2", "C2", "G2"]
)
def test_finite_localization_rows_are_upper_sums(spec):
    # The classical oracle reads its localization rows off the T-rows; the
    # upper sums over Bruhat order they replace, by the lifting property.
    datum = build_root_system(spec)
    elements = [finite_element(datum, m) for m in weyl_group(datum).elements]
    for w in elements:
        expected = {}
        for v in elements:
            total = sum(
                (e for u, e in e_row(v).items() if bruhat_leq(w, u)), G(datum.rank)
            )
            if total:
                expected[v] = total
        assert _finite_localization_row(w) == expected, w


# -- kappa and the Schubert-class images -------------------------------------------


def test_kappa_examples(a1):
    assert kappa(t_in_loc(affine_simple(a1, 1))).terms == {}
    s0 = affine_simple(a1, 0)
    k = KElement(a1, TBASIS, k_class(s0))
    assert kappa(t_in_loc(s0)) == kappa(t_sum_in_loc(k))
    with pytest.raises(ValueError):
        kappa(k)  # T-basis: the projection is defined on the localization basis
    t = translation(a1, (-2,))
    scalar = KElement(a1, LOC, {t: RationalFunction.one(a1)})
    assert kappa(scalar) == scalar


def test_kappa_kills_exactly_non_grassmannian(a1, a2):
    for datum, bound in ((a1, 6), (a2, 5)):
        for u in affine_ball(datum, bound):
            value = kappa(t_in_loc(u)).terms
            if is_grassmannian(u):
                assert value, u
            else:
                assert not value, u


def test_k_class_closed_forms(a1):
    one = RationalFunction.one(a1)
    ema = RationalFunction.from_gae(a1, G.monomial((-2,)))
    one_minus = one - ema
    for r in (1, 2, 3):
        g_odd = el(a1, f"s1 t[{-r}]")
        h_odd = el(a1, f"s1 t[{r - 1}]") if r > 1 else el(a1, "s1")
        h_even = el(a1, f"t[{r}]")
        assert k_class(g_odd) == {g_odd: one, h_odd: one, h_even: one_minus}
        g_even = el(a1, f"t[{-r}]")
        assert k_class(g_even) == {g_even: one, h_even: ema}
    assert k_class(identity(a1)) == {identity(a1): one}


def test_l_class_closed_forms(a1):
    one = RationalFunction.one(a1)
    one_minus = one - RationalFunction.from_gae(a1, G.monomial((-2,)))
    for r in (1, 2, 3):
        ball = affine_ball(a1, 2 * r)
        assert l_class(el(a1, f"t[{-r}]")) == {v: one for v in ball}
        odd_terms = {v: one for v in affine_ball(a1, 2 * r - 1)}
        odd_terms[el(a1, f"t[{r}]")] = one_minus
        assert l_class(el(a1, f"s1 t[{-r}]")) == odd_terms
    assert l_class(identity(a1)) == {identity(a1): one}


def test_l_class_is_sum_of_k_classes(a2):
    for w in grassmannian_ball(a2, 4):
        total = KElement(a2, TBASIS)
        for v in lower_interval(w):
            if is_grassmannian(v):
                total = kel_add(total, KElement(a2, TBASIS, k_class(v)))
        assert l_class(w) == total.terms


def test_k_class_shape_guard(a1):
    with pytest.raises(ValueError):
        k_class(el(a1, "s1"))  # not Grassmannian: rejected before shape check


def test_k_class_coefficients_polynomial(a2):
    for w in grassmannian_ball(a2, 4):
        for x, c in k_class(w).items():
            c.to_polynomial()
            if x != w:
                assert not is_grassmannian(x)


# -- algebra identities from the construction ---------------------------------------


def test_sl2_k_classes_commute_with_scalars(a1):
    # the closed-form classes centralize the base ring: k e^{-a} = e^{-a} k
    ema = kel_scalar(a1, RationalFunction.from_gae(a1, G.monomial((-2,))))
    for r in (1, 2, 3):
        for name in (f"s1 t[{-r}]", f"t[{-r}]"):
            k = t_sum_in_loc(KElement(a1, TBASIS, k_class(el(a1, name))))
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
    siq = weyl_act(si, q)
    alpha = level_zero_root(a2, i)
    corr = (q - siq) * rf_inverse_one_minus_exp(
        a2, tuple(-c for c in alpha)
    )
    rhs = kel_add(k_mul(yi, kel_scalar(a2, siq)), kel_scalar(a2, corr))
    assert lhs == rhs


def test_k_mul_requires_loc(a1):
    a = KElement(a1, TBASIS, {identity(a1): RationalFunction.one(a1)})
    with pytest.raises(ValueError):
        k_mul(a, a)
