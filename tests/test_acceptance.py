"""Acceptance suite: one test per criterion, each printing a PASS line.

All assertions are exact (integer/Laurent arithmetic, tolerance zero).
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time

from oracles import (
    b_row_subword,
    e_row_subword,
    k_mul,
    kel_scale,
    t_element,
    weyl_act,
    y_element,
)
from kschubert.ring import GroupAlgebraElement, RationalFunction
from kschubert.nilhecke import (
    b_cosets,
    e_row,
    k_class,
    l_class,
    loc_row,
    translation_cosets,
)
from kschubert.constants import (
    classical_k_constants,
    classical_quantum_data,
    conjecture_check,
    eval_coefficient,
    load_quantum_data,
    pontryagin_constants,
    pontryagin_constants_linear,
    verify_embedded_tables,
)
from kschubert.weyl import (
    aff_multiply,
    affine_ball,
    coset_min,
    format_element,
    grassmannian_ball,
    identity,
    parse_element,
    translation,
)

G = GroupAlgebraElement


def el(datum, text):
    return parse_element(text, datum)


def _report(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_1_sl2_product(a1):
    start = time.monotonic()
    x = el(a1, "s1 t[-1]")
    table = pontryagin_constants(x, x)
    expected = {
        el(a1, "s1 t[-2]"): eval_coefficient(a1, [{"one_minus_e": [-1]}]),
        el(a1, "t[-1]"): eval_coefficient(a1, [{"e": [-1]}]),
    }
    elapsed = time.monotonic() - start
    assert table.entries == expected
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"rank-one Schubert square exact in {elapsed * 1000:.0f} ms")


def test_criterion_2_sl2_remark_summand(a1):
    # the single surviving summand at t1 = t2 = t_{alpha_vee} for z = s1 s0
    b = b_cosets(el(a1, "s1 t[-1]"))[(1,)]
    e = translation_cosets((2,), identity(a1))[coset_min(translation(a1, (-1,)))]
    value = b * b * e
    assert value == RationalFunction.from_gae(a1, G.monomial((-2,)))
    _report(2, "remark summand b^2 e evaluates to e^{-a}")


def test_criterion_3_sl2_translation_law(a1):
    start = time.monotonic()
    g = {m: grassmannian_ball(a1, m)[-1] if m else identity(a1) for m in range(9)}
    for m in range(7):
        table = pontryagin_constants(g[m], g[2])
        assert table.entries == {g[m + 2]: G.one(1)}, m
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"translation law O_gm . O_g2 = O_g(m+2) for m <= 6 in {elapsed:.2f} s")


def test_criterion_4_sl2_closed_forms(a1):
    one = RationalFunction.one(a1)
    ema = RationalFunction.from_gae(a1, G.monomial((-2,)))
    for r in (1, 2, 3):
        g_odd, g_even = el(a1, f"s1 t[{-r}]"), el(a1, f"t[{-r}]")
        h_odd = el(a1, f"s1 t[{r - 1}]") if r > 1 else el(a1, "s1")
        h_even = el(a1, f"t[{r}]")
        k_odd = k_class(g_odd)
        assert k_odd == {g_odd: one, h_odd: one, h_even: one - ema}
        k_even = k_class(g_even)
        assert k_even == {g_even: one, h_even: ema}
        l_even = l_class(g_even)
        assert l_even == {v: one for v in affine_ball(a1, 2 * r)}
        l_odd = l_class(g_odd)
        expect = {v: one for v in affine_ball(a1, 2 * r - 1)}
        expect[h_even] = one - ema
        assert l_odd == expect
    _report(4, "closed forms of k and l classes reproduced for r in {1,2,3}")


def test_criterion_5_sl3_table(a2):
    start = time.monotonic()
    report = verify_embedded_tables("sl3")
    elapsed = time.monotonic() - start
    assert not report.failures, [(r.identity, r.detail) for r in report.failures]
    products = [r for r in report.records if r.identity.startswith("table")]
    translations = [r for r in report.records if r.identity.startswith("ltrans")]
    assert len(products) == 18  # 9 lines plus their diagram-symmetry images
    assert len(translations) == 12  # 6 finite parts plus images
    assert elapsed < 300.0
    _report(
        5,
        f"rank-two table ({len(report.records)} identities incl. swaps) in {elapsed:.2f} s",
    )


def test_criterion_6_matrix_inverse_identity(a1, a2):
    for datum, bound in ((a1, 6), (a2, 5)):
        ball = affine_ball(datum, bound)
        zero = RationalFunction.from_gae(datum, G(datum.rank))
        for x in ball:
            row = loc_row(x)
            for z in ball:
                total = zero
                for v, b in row.items():
                    e = e_row(v).get(z)
                    if e is not None:
                        total = total + b * e
                expected = RationalFunction.one(datum) if x == z else zero
                assert total == expected, (datum.label, x, z)
    _report(6, "sum_v b_{x,v} e_{v,z} = delta_{x,z} (A1 len<=6, A2 len<=5)")


def test_criterion_7_oracle_equivalences(a1, a2):
    import json
    from importlib import resources

    # b/e oracle ranges from criterion 6, plus every translation element that
    # the criterion 1-5 product convolutions touch
    oracle_targets = {a1: set(affine_ball(a1, 6)), a2: set(affine_ball(a2, 5))}

    product_inputs = []
    for name in ("sl2_tables.json", "sl3_tables.json"):
        with resources.files("kschubert.data").joinpath(name).open("r") as fh:
            data = json.load(fh)
        datum = a1 if data["type"] == "A1" else a2
        for item in data["identities"]:
            if item["kind"] == "product":
                product_inputs.append((datum, item["x"], item["y"]))

    for datum, xs, ys in product_inputs:
        x, y = el(datum, xs), el(datum, ys)
        for mu, _ in b_cosets(x).items():
            for nu, _ in b_cosets(y).items():
                sigma = tuple(a + b for a, b in zip(mu, nu))
                oracle_targets[datum].add(translation(datum, sigma))

    for datum, targets in oracle_targets.items():
        for x in sorted(targets, key=lambda e: (format_element(e),)):
            assert b_row_subword(x) == loc_row(x), x
            assert e_row_subword(x) == e_row(x), x

    for datum, xs, ys in product_inputs:
        x, y = el(datum, xs), el(datum, ys)
        assert (
            pontryagin_constants(x, y).entries
            == pontryagin_constants_linear(x, y).entries
        ), (xs, ys)
    _report(
        7,
        f"subword sums, recursion, and the linear route agree "
        f"({sum(len(t) for t in oracle_targets.values())} rows, "
        f"{len(product_inputs)} products)",
    )


def test_criterion_8_conjecture_sl2(a1):
    x = el(a1, "s1 t[-1]")
    report = conjecture_check(x, x, load_quantum_data())
    assert report.mismatches == 0
    assert [e.verdict for e in report.entries].count("match") == 2
    by_z = {format_element(e.z): e for e in report.entries}
    assert by_z["s1 t[-2]"].eta == (0,)
    assert by_z["s1 t[-2]"].c_value == eval_coefficient(a1, [{"one_minus_e": [-1]}])
    assert by_z["t[-1]"].eta == (1,)
    assert by_z["t[-1]"].c_value == eval_coefficient(a1, [{"e": [-1]}])
    _report(8, "rank-one conjecture data matches on both entries (eta 0 and 1)")


def test_criterion_9_conjecture_sl3_degree_zero(a1, a2):
    # hard assertion in rank one
    s1 = el(a1, "s1")
    assert classical_k_constants(s1, s1) == {
        s1: eval_coefficient(a1, [{"one_minus_e": [-1]}])
    }
    # rank two: every eta = 0 entry of the embedded table must match the oracle
    names = ["id", "s1", "s2", "s1*s2", "s2*s1", "s1*s2*s1"]
    mismatches = 0
    compared = 0
    for us in names:
        for vs in names:
            u, v = el(a2, us), el(a2, vs)
            x = aff_multiply(u, translation(a2, (-1, -1)))
            y = aff_multiply(v, translation(a2, (-1, -1)))
            report = conjecture_check(x, y, classical_quantum_data(a2, [(u, v)]))
            mismatches += report.mismatches
            for entry in report.entries:
                if entry.eta == (0, 0):
                    compared += 1
                    assert entry.verdict == "match", (us, vs, format_element(entry.z))
    assert mismatches == 0
    assert compared >= 36
    _report(9, f"degree-zero oracle agrees on all {compared} eta=0 entries, 0 mismatches")


def test_criterion_10_property_suites(a1, a2):
    rng = random.Random(20240811)

    # T_i^2 = -T_i, y_i^2 = y_i, braid relations
    for datum in (a1, a2):
        for i in range(datum.rank + 1):
            T, y = t_element(datum, i), y_element(datum, i)
            assert k_mul(T, T) == kel_scale(T, -G.one(datum.rank))
            assert k_mul(y, y) == y
    for i in range(3):
        for j in range(3):
            if i != j:
                Ti, Tj = t_element(a2, i), t_element(a2, j)
                assert k_mul(Ti, k_mul(Tj, Ti)) == k_mul(Tj, k_mul(Ti, Tj))
                yi, yj = y_element(a2, i), y_element(a2, j)
                assert k_mul(yi, k_mul(yj, yi)) == k_mul(yj, k_mul(yi, yj))

    # randomized product checks within the length guards
    guards = {a1: 6, a2: 4}
    for datum in (a1, a2):
        reps = list(grassmannian_ball(datum, guards[datum]))
        for _ in range(6):
            x, y = rng.choice(reps), rng.choice(reps)
            table = pontryagin_constants(x, y)
            # polynomiality holds by construction (entries are group-algebra
            # elements); augmentation and commutativity are asserted:
            assert sum(c.augmentation() for c in table.entries.values()) == 1
            assert pontryagin_constants(y, x).entries == table.entries

    # Weyl-action ring homomorphism and group action on random values
    ball = affine_ball(a2, 3)
    for _ in range(10):
        x, y = rng.choice(ball), rng.choice(ball)
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(2)): rng.randint(-3, 3)
            for _ in range(3)
        }
        f = RationalFunction(a2, G(2, terms), ((a2.positive_roots[0], 1),))
        g = RationalFunction.from_gae(a2, G(2, {(1, -1): 2, (0, 1): -1}))
        assert weyl_act(x, f * g) == weyl_act(x, f) * weyl_act(x, g)
        assert weyl_act(x, f + g) == weyl_act(x, f) + weyl_act(x, g)
        assert weyl_act(aff_multiply(x, y), f) == weyl_act(x, weyl_act(y, f))
    _report(10, "generator relations, product invariants, and action laws hold")
