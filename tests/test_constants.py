import itertools

import pytest

from oracles import (
    FINITE_TYPES,
    alternating_positive,
    classical_k_constants_rf,
    cold,
    counting_e_rows,
    lowest_part,
    pontryagin_constants_rf,
    skewed_diagonal,
    translation_convolution_rf,
    translation_product_check,
)
from kschubert import constants, nilhecke, ring
from kschubert.ring import GroupAlgebraElement, NonPolynomialError, RationalFunction, combine
from kschubert.rootsys import build_root_system, root_lattice_weight, weight_in_root_coords
from kschubert.constants import (
    MalformedDatumError,
    QuantumDatum,
    SingularSystemError,
    _triangular_solve,
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
    finite_element,
    finite_elements,
    format_element,
    grassmannian_ball,
    identity,
    is_grassmannian,
    length,
    parse_element,
    translation,
    weyl_group,
)

G = GroupAlgebraElement


def el(datum, text):
    return parse_element(text, datum)


def one_minus(datum, coords):
    return eval_coefficient(datum, [{"one_minus_e": list(coords)}])


def exp(datum, coords):
    return eval_coefficient(datum, [{"e": list(coords)}])


# -- the basic products ---------------------------------------------------------


def test_sl2_square(a1):
    x = el(a1, "s1 t[-1]")
    table = pontryagin_constants(x, x)
    assert table.entries == {
        el(a1, "s1 t[-2]"): one_minus(a1, [-1]),
        el(a1, "t[-1]"): exp(a1, [-1]),
    }
    assert not table.warnings


def test_unit(a1, a2):
    for datum, name in ((a1, "s1 t[-2]"), (a2, "s1*s2 t[-1,-1]")):
        y = el(datum, name)
        table = pontryagin_constants(identity(datum), y)
        assert table.entries == {y: G.one(datum.rank)}
        table = pontryagin_constants(y, identity(datum))
        assert table.entries == {y: G.one(datum.rank)}


def test_sl3_sample_line(a2):
    x = el(a2, "s1 t[-1,-1]")
    y = el(a2, "s2 t[-1,-1]")
    table = pontryagin_constants(x, y)
    assert table.entries == {
        el(a2, "s1*s2 t[-2,-2]"): G.one(2),
        el(a2, "s2*s1 t[-2,-2]"): G.one(2),
        el(a2, "s1*s2*s1 t[-2,-2]"): -G.one(2),
    }


def test_non_grassmannian_inputs_rejected(a1):
    with pytest.raises(ValueError):
        pontryagin_constants(el(a1, "s1"), identity(a1))


def test_routes_agree(a1, a2):
    pairs = [
        (a1, "s1 t[-1]", "s1 t[-1]"),
        (a1, "t[-1]", "s1 t[-2]"),
        (a2, "s1 t[-1,-1]", "s2*s1 t[-1,-1]"),
        (a2, "s1*s2 t[-1,-1]", "s1*s2 t[-1,-1]"),
    ]
    for datum, xs, ys in pairs:
        x, y = el(datum, xs), el(datum, ys)
        assert pontryagin_constants(x, y).entries == pontryagin_constants_linear(x, y).entries


def test_commutativity(a2):
    # The ordered route both ways: ``pontryagin_constants`` puts the shorter
    # factor first, so it would compare a route with itself.
    reps = grassmannian_ball(a2, 2)
    for x in reps:
        for y in reps:
            assert constants._constants_in_order(x, y).entries == constants._constants_in_order(y, x).entries


def test_product_lifts_only_the_shorter_factor(monkeypatch, a1):
    # The route's work grows with its first factor, whose b row it lifts:
    # from cold, t[-60] * t[-1] lifts t[-1] alone, one b_lift miss, as the
    # swapped order does, instead of the 60-letter row of t[-60].
    x, y = el(a1, "t[-60]"), el(a1, "t[-1]")
    cold()
    lifted, lift = [], constants.b_lift
    monkeypatch.setattr(constants, "b_lift", lambda w, side: lifted.append(w) or lift(w, side))
    table = pontryagin_constants(x, y)
    assert lifted == [y] and nilhecke.b_lift.cache_info().misses == 1
    assert table.entries == pontryagin_constants(y, x).entries


def test_augmentation_sums_to_one(a1, a2):
    pairs = [
        (a1, "s1 t[-1]", "t[-1]"),
        (a1, "s1 t[-2]", "s1 t[-1]"),
        (a2, "s1 t[-1,-1]", "s1 t[-1,-1]"),
        (a2, "s1*s2*s1 t[-1,-1]", "s2*s1 t[-1,-1]"),
    ]
    for datum, xs, ys in pairs:
        table = pontryagin_constants(el(datum, xs), el(datum, ys))
        assert sum(c.augmentation() for c in table.entries.values()) == 1


@pytest.mark.parametrize("label, max_len", [("A1", 8), ("A2", 5), ("A3", 3)])
def test_product_routes_whole_ball(label, max_len):
    # The engine's coset-row route against the paper's formula it replaced
    # (reduced RationalFunctions) and against the triangular solve, on every
    # pair of the ball; the ordered route is asymmetric, so swapping its
    # factors is a check too.
    reps = grassmannian_ball(build_root_system(label), max_len)
    for i, x in enumerate(reps):
        for y in reps[i:]:
            table = pontryagin_constants(x, y)
            entries = table.entries
            assert table.warnings == []
            assert entries == pontryagin_constants_rf(x, y).entries
            assert entries == pontryagin_constants_linear(x, y).entries
            assert entries == constants._constants_in_order(y, x).entries


NON_SIMPLY_LACED = pytest.mark.parametrize(
    "cartan",
    [[[2, -2], [-1, 2]], [[2, -1], [-2, 2]], [[2, -1], [-3, 2]]],
    ids=["B2", "C2", "G2"],
)


@NON_SIMPLY_LACED
def test_product_routes_non_simply_laced(cartan):
    # Whole Grassmannian ball; no reference numbers exist here, so the
    # invariants are the check: agreement with the paper's formula and the
    # triangular solve, commutativity, augmentation.
    datum = build_root_system(cartan)
    reps = grassmannian_ball(datum, 4)
    for i, x in enumerate(reps):
        for y in reps[i:]:
            table = pontryagin_constants(x, y)
            entries = table.entries
            assert table.warnings == []
            assert entries == pontryagin_constants_rf(x, y).entries
            assert entries == pontryagin_constants_linear(x, y).entries
            assert entries == constants._constants_in_order(y, x).entries
            assert sum(c.augmentation() for c in entries.values()) == 1


def counting_combine(monkeypatch, seen: list) -> None:
    """Route ``pontryagin_constants`` through a ``ring.combine`` that
    appends, for each row it reads, the term products its flat kernel makes
    on that row: |lifted numerator| times the terms of the row."""

    def counting(datum, lifted, rows):
        nums = lifted[1]

        def counted(k):
            row = rows(k)
            seen.append(len(nums[k].terms) * sum(len(g.terms) for g in row.values()))
            return row

        return combine(datum, lifted, counted)

    monkeypatch.setattr(constants, "combine", counting)


def test_square_work_count(monkeypatch, a2):
    # Term products of the flat kernel for one A2 t[-2,-2] square once its
    # memoized rows and lift are warm: 10,635 on the coset-row route (11,268
    # while the lift was redone per pair); the convolution and e stage it
    # replaced made 893,724.  ``ring.mul_add``, the one loop that multiplies
    # terms, sees each of them, in one call per (lifted numerator, row
    # entry).  A count, so it holds however noisy the clock.
    x = el(a2, "t[-2,-2]")
    first = pontryagin_constants(x, x).entries
    seen, calls, mul_add = [], [], ring.mul_add
    counting_combine(monkeypatch, seen)

    def counting(acc, a, b, *rest):
        calls.append(len(a.terms) * len(b.terms))
        return mul_add(acc, a, b, *rest)

    monkeypatch.setattr(ring, "mul_add", counting)
    assert pontryagin_constants(x, x).entries == first
    assert 0 < sum(seen) < 50_000
    assert sum(seen) == sum(calls) == 10_635 and len(calls) == 161


def test_scan_work_guard(monkeypatch, a2):
    # The 136 pairs x <= y of the A2 Grassmannian ball of length <= 6, from
    # cold kernels: each of the 16 x is lifted to D_x once (b_lift misses),
    # read off the running denominator D with 62 joint coset passes, one on
    # the fewest-term numerator per root of D (D is D_x on all of A2, so no
    # pass over all entries follows).  The lifted numerators make 51,691
    # term products, and the pair stage's division is exactly one coset
    # grouping per (pair, root of D_x), 330 (566 one-factor passes before,
    # and 1,228 exact divisions for the per-entry reduction before that).
    # The e kernel builds 590 rows, one per letter peeled or base row, and
    # holds 136 of them with 877 entries: the rows its calls returned and
    # each start's identity row (454 rows held and built, with 2,204
    # entries, while it kept every prefix).  The 877 entries are 415
    # distinct dicts with 2,732 terms: an entry equal to one the kernel
    # holds is that entry (4,661 terms while each was its own copy).
    # Counts, so they hold however noisy the clock.
    ball = grassmannian_ball(a2, 6)
    pairs = [(x, y) for i, x in enumerate(ball) for y in ball[i:]]
    tables = [pontryagin_constants(x, y).entries for x, y in pairs]
    cold()
    e_rows = counting_e_rows(monkeypatch, a2)
    joint, groupings, products = [], [], []
    coset_pass = ring._coset_pass
    # A joint pass is the one call given a sixth, ``joint``, argument.
    monkeypatch.setattr(ring, "_coset_pass", lambda *a: (joint if a[5:] else groupings).append(1) or coset_pass(*a))
    counting_combine(monkeypatch, products)
    assert [pontryagin_constants(x, y).entries for x, y in pairs] == tables
    lifts = nilhecke.b_lift.cache_info().misses
    roots = sum(len(nilhecke.b_lift(x, True)[0]) for x, _ in pairs)
    assert (len(pairs), lifts, len(joint), sum(products)) == (136, 16, 62, 51_691)
    assert len(groupings) == roots == 330
    assert e_rows() == (136, 590)
    held = [terms for row, _ in nilhecke._kernel(a2).rows.values() for terms in row.values()]
    distinct = {id(terms): terms for terms in held}.values()
    assert (len(held), len(distinct), sum(map(len, distinct))) == (877, 415, 2_732)


@pytest.mark.parametrize(
    "label,max_len,entries,attained",
    [("A1", 8, 55, 55), ("A2", 7, 557, 557), ("A3", 5, 856, 822)]
    + [("B2", 6, 275, 274), ("C2", 6, 275, 274), ("G2", 6, 274, 273)],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_constants_alternate_in_sign_above_the_degree_bound(label, max_len, entries, attained):
    # Every entry c_{x,y}^z of every pair x <= y of the Grassmannian ball,
    # with delta = l(z) - l(x) - l(y): c lies in Z[e^{-alpha_i}], and with
    # e^{-alpha_i} = 1 + u_i, (-1)^delta c has nonnegative u-coefficients
    # and no term of u-degree below max(0, delta) (Anderson-Griffeth-Miller
    # sign alternation, and the grading of the homology constants).  The
    # bound is attained, a nonzero term of degree exactly max(0, delta), on
    # all but a few entries.
    datum = build_root_system(FINITE_TYPES[label][0])
    ball = grassmannian_ball(datum, max_len)
    seen = [
        (c, length(z) - length(x) - length(y))
        for i, x in enumerate(ball)
        for y in ball[i:]
        for z, c in pontryagin_constants(x, y).entries.items()
    ]
    assert [d for c, d in seen if not alternating_positive(datum, c, d)] == []
    assert (len(seen), sum(bool(lowest_part(datum, c, d)) for c, d in seen)) == (entries, attained)


def test_translation_product_check(a1, a2):
    for m in range(7):
        x = grassmannian_ball(a1, m)[-1] if m else identity(a1)
        holds, _ = translation_product_check(x, (-1,))
        assert holds
    group = weyl_group(a2)
    for mat in group.elements:
        x = aff_multiply(finite_element(a2, mat), translation(a2, (-1, -1)))
        holds, table = translation_product_check(x, (-1, -1))
        assert holds, format_element(x)
    with pytest.raises(ValueError):
        translation_product_check(identity(a1), (1,))


def _times(table, factor, on_left=False):
    """Expand sum_w table[w] O_w . O_factor, or O_factor . O_w if on_left."""
    out = {}
    for w, c in table.items():
        pair = (factor, w) if on_left else (w, factor)
        for v, c2 in pontryagin_constants(*pair).entries.items():
            out[v] = out[v] + c * c2 if v in out else c * c2
    return {k: v for k, v in out.items() if v}


def _assert_associative(x, y, z):
    left = _times(pontryagin_constants(x, y).entries, z)
    right = _times(pontryagin_constants(y, z).entries, x, on_left=True)
    assert left == right, (format_element(x), format_element(y), format_element(z))


def test_associativity_a1(a1):
    for x, y, z in itertools.product(grassmannian_ball(a1, 3), repeat=3):
        _assert_associative(x, y, z)


def test_associativity_spot_check_a2(a2):
    triples = [
        ("s1 t[-1,-1]", "s2 t[-1,-1]", "s1*s2 t[-1,-1]"),
        ("s1 t[-1,-1]", "s1 t[-1,-1]", "s1*s2*s1 t[-1,-1]"),
    ]
    for xs, ys, zs in triples:
        _assert_associative(el(a2, xs), el(a2, ys), el(a2, zs))


@NON_SIMPLY_LACED
def test_invariants_non_simply_laced(cartan):
    # Unit, associativity and the translation law; no reference numbers
    # exist for these types, so the invariants are the whole check.
    datum = build_root_system(cartan)
    one = identity(datum)
    for x in grassmannian_ball(datum, 4):
        assert pontryagin_constants(one, x).entries == {x: G.one(datum.rank)}
    for x, y, z in itertools.product(grassmannian_ball(datum, 2), repeat=3):
        _assert_associative(x, y, z)
    nu = min(
        (nu for nu in itertools.product(range(-2, 1), repeat=2)
         if any(nu) and is_grassmannian(translation(datum, nu))),
        key=lambda nu: length(translation(datum, nu)),
    )
    for x in grassmannian_ball(datum, 3):
        holds, _ = translation_product_check(x, nu)
        assert holds, (format_element(x), nu)


# -- classical oracle ------------------------------------------------------------


def test_classical_a1_hard_assertion(a1):
    s1 = el(a1, "s1")
    table = classical_k_constants(s1, s1)
    assert table == {s1: one_minus(a1, [-1])}


def test_classical_unit(a2):
    for name in ("s1", "s1*s2", "s1*s2*s1"):
        v = el(a2, name)
        assert classical_k_constants(identity(a2), v) == {v: G.one(2)}
        assert classical_k_constants(v, identity(a2)) == {v: G.one(2)}


def test_classical_a2_monk_line(a2):
    table = classical_k_constants(el(a2, "s1"), el(a2, "s2"))
    assert table == {
        el(a2, "s1*s2"): G.one(2),
        el(a2, "s2*s1"): G.one(2),
        el(a2, "s1*s2*s1"): -G.one(2),
    }


def test_classical_commutative(a2):
    names = ["s1", "s2", "s1*s2", "s2*s1", "s1*s2*s1"]
    for a in names:
        for b in names:
            assert classical_k_constants(el(a2, a), el(a2, b)) == classical_k_constants(
                el(a2, b), el(a2, a)
            )


@pytest.mark.parametrize(
    "spec",
    ["A1", "A2", "A3", [[2, -2], [-1, 2]], [[2, -1], [-2, 2]], [[2, -1], [-3, 2]]],
    ids=["A1", "A2", "A3", "B2", "C2", "G2"],
)
def test_classical_solve_matches_rational_solve(spec):
    # Every ordered pair of W: the solve on polynomials, each pivot divided
    # exactly by e_{w,w}, against the solve that multiplies every pivot by
    # the inverse of e_{w,w} as a reduced RationalFunction.
    datum = build_root_system(spec)
    elements = finite_elements(datum)
    for u in elements:
        for v in elements:
            assert classical_k_constants(u, v) == classical_k_constants_rf(u, v), (u, v)


def test_classical_solve_is_its_exactness_gate(monkeypatch, a1):
    # A1 s1 * s1: the pivot value at s1 is (L[s1][s1] + 1)^2, of
    # augmentation 1, so the exact division by e_{s1,s1} = 1 - e^gamma fails.
    s1 = el(a1, "s1")
    monkeypatch.setattr(constants, "_finite_localization_row", skewed_diagonal(constants._finite_localization_row))
    with pytest.raises(NonPolynomialError):
        classical_k_constants(s1, s1)


def test_triangular_solve_returns_a_consistent_systems_coefficients(a1):
    one, e = G.one(1), G.monomial((2,))
    rows = {"p": {"p": one, "q": e}, "q": {"q": one}}
    residual = {"p": one * 2, "q": e * 2 + one * 3}

    def unread():
        raise AssertionError("the message of a solvable system is formatted")

    solved = _triangular_solve(residual, "pq", lambda z: z, lambda z, value: value, rows.__getitem__, unread)
    assert solved == {"p": one * 2, "q": one * 3}


def test_triangular_solve_raises_on_a_leftover_residual(a1):
    # The row of p holds 2 at its own pivot, so subtracting value * row
    # leaves -value behind at p: the solver itself must refuse it.
    one = G.one(1)
    with pytest.raises(SingularSystemError, match="at 'p' while solving the test system"):
        _triangular_solve(
            {"p": one},
            "p",
            lambda z: z,
            lambda z, value: value,
            lambda z: {"p": one * 2},
            lambda: "solving the test system",
        )


def test_oracles_take_no_rational_arithmetic(monkeypatch, a2):
    # Rebuilt from cold memos, the classical constants of every ordered pair
    # of A2's W and the convolutions of the scan's 136 pairs (A2 Grassmannian
    # ball of length <= 6, x <= y) make no RationalFunction sum, difference
    # or product.  Counts, not times.
    elements = finite_elements(a2)
    ball = grassmannian_ball(a2, 6)
    pairs = [(x, y) for i, x in enumerate(ball) for y in ball[i:]]
    classical = [classical_k_constants(u, v) for u in elements for v in elements]
    convolutions = [constants._translation_convolution(x, y) for x, y in pairs]
    cold()
    calls = []
    for name in ("__add__", "__sub__", "__mul__"):
        op = getattr(RationalFunction, name)
        monkeypatch.setattr(RationalFunction, name, lambda a, b, op=op: calls.append(1) or op(a, b))
    assert [classical_k_constants(u, v) for u in elements for v in elements] == classical
    assert [constants._translation_convolution(x, y) for x, y in pairs] == convolutions
    assert (len(classical), len(pairs), len(calls)) == (36, 136, 0)


@pytest.mark.parametrize("label,max_len", [("A1", 10), ("A2", 6), ("A3", 4)])
def test_convolution_matches_rational_sums(label, max_len):
    # Every pair x <= y of the Grassmannian ball: the convolution as one
    # combine over D_x D_y against one reduced product and sum at a time.
    ball = grassmannian_ball(build_root_system(label), max_len)
    for i, x in enumerate(ball):
        for y in ball[i:]:
            assert constants._translation_convolution(x, y) == translation_convolution_rf(x, y), (x, y)


# -- conjecture comparison ----------------------------------------------------------


def test_conjecture_sl2(a1):
    x = el(a1, "s1 t[-1]")
    report = conjecture_check(x, x, load_quantum_data())
    verdicts = {format_element(e.z): e.verdict for e in report.entries}
    assert verdicts == {"s1 t[-2]": "match", "t[-1]": "match"}
    etas = {format_element(e.z): e.eta for e in report.entries}
    assert etas == {"s1 t[-2]": (0,), "t[-1]": (1,)}


def test_conjecture_sl3_degree_zero(a2):
    names = ["s1", "s2", "s1*s2", "s2*s1", "s1*s2*s1"]
    total_mismatch = 0
    eta_zero_entries = 0
    for us in names:
        for vs in names:
            u, v = el(a2, us), el(a2, vs)
            x = aff_multiply(u, translation(a2, (-1, -1)))
            y = aff_multiply(v, translation(a2, (-1, -1)))
            data = classical_quantum_data(a2, [(u, v)])
            report = conjecture_check(x, y, data)
            total_mismatch += report.mismatches
            eta_zero_entries += sum(
                1 for e in report.entries if e.eta == (0, 0) and e.verdict == "match"
            )
            for e in report.entries:
                if e.eta == (0, 0):
                    assert e.verdict == "match", (us, vs, format_element(e.z))
    assert total_mismatch == 0
    assert eta_zero_entries > 0


def test_conjecture_flags_wrong_data(a1):
    x = el(a1, "s1 t[-1]")
    bogus = QuantumDatum(
        u=el(a1, "s1"),
        v=el(a1, "s1"),
        w=el(a1, "s1"),
        degree=(0,),
        value=G.one(1),
    )
    report = conjecture_check(x, x, [bogus])
    assert report.mismatches == 1


def test_conjecture_reports_missing_product_entries(a1):
    # a datum whose target class does not occur in the table asserts c = 0
    x = el(a1, "s1 t[-1]")
    extra = QuantumDatum(
        u=el(a1, "s1"),
        v=el(a1, "s1"),
        w=el(a1, "id"),
        degree=(0,),
        value=G.one(1),
    )
    report = conjecture_check(x, x, [extra])
    zero_side = [e for e in report.entries if e.eta == (0,) and e.w == identity(a1)]
    assert len(zero_side) == 1 and zero_side[0].verdict == "mismatch"


def test_conjecture_rejects_conflicting_data(a1):
    # The fixture's degree-zero datum and the classical oracle's share a key;
    # equal duplicates are accepted, a conflicting one is refused.
    x, s1 = el(a1, "s1 t[-1]"), el(a1, "s1")
    fixture = list(load_quantum_data())
    classical = classical_quantum_data(a1, [(s1, s1)])
    for data in (fixture, classical):
        assert (s1, s1, s1, (0,)) in {(d.u, d.v, d.w, d.degree) for d in data}
    report = conjecture_check(x, x, fixture + classical)
    assert report.mismatches == 0 and [e.verdict for e in report.entries].count("match") == 2
    conflict = QuantumDatum(u=s1, v=s1, w=s1, degree=(0,), value=G.one(1))
    for data in (fixture + [conflict], [conflict] + classical):
        with pytest.raises(MalformedDatumError):
            conjecture_check(x, x, data)


def test_conjecture_reads_only_the_pairs_data(a1):
    # Data of other pairs are skipped before indexing: a conflict among them
    # does not raise, and the report is the same as without them.
    x, s1, e = el(a1, "s1 t[-1]"), el(a1, "s1"), identity(a1)
    own = classical_quantum_data(a1, [(s1, s1)])
    others = [
        QuantumDatum(u=e, v=s1, w=s1, degree=(0,), value=G.one(1)),
        QuantumDatum(u=e, v=s1, w=s1, degree=(0,), value=-G.one(1)),
    ]
    report = conjecture_check(x, x, others + own + others)
    expected = conjecture_check(x, x, own)
    assert [(r.z, r.c_value, r.n_value, r.verdict) for r in report.entries] == [
        (r.z, r.c_value, r.n_value, r.verdict) for r in expected.entries
    ]
    assert report.mismatches == 0 and "match" in [e.verdict for e in report.entries]


def test_malformed_datum():
    with pytest.raises(MalformedDatumError):
        QuantumDatum(
            u=None, v=None, w=None, degree=(-1,), value=None  # type: ignore[arg-type]
        )


def test_quantum_data_are_immutable(a1):
    s1 = el(a1, "s1")
    datum = QuantumDatum(u=s1, v=s1, w=s1, degree=(0,), value=G.one(1))
    for name in ("u", "degree", "value", "other"):
        with pytest.raises(AttributeError):
            setattr(datum, name, None)
    with pytest.raises(AttributeError):
        del datum.value
    assert (datum.u, datum.v, datum.w, datum.degree, datum.value) == (s1, s1, s1, (0,), G.one(1))


# -- embedded fixtures ----------------------------------------------------------------


def test_verify_sl2_suite():
    records = verify_embedded_tables("sl2")
    assert all(r.ok for r in records), [r.identity for r in records if not r.ok]


def test_verify_sl3_suite():
    records = verify_embedded_tables("sl3")
    assert all(r.ok for r in records), [(r.identity, r.detail) for r in records if not r.ok]


def test_verify_all_has_both(a1):
    names = {r.identity for r in verify_embedded_tables("all")}
    assert "square-g1" in names and "table-9" in names and "table-9-swapped" in names
    with pytest.raises(ValueError):
        verify_embedded_tables("sl4")


def test_verify_checks_every_sl3_product_under_the_diagram_automorphism():
    records = verify_embedded_tables("sl3")
    names = {r.identity for r in records}
    swapped = [r.identity for r in records if r.identity.endswith("-swapped")]
    assert len(swapped) == 15 and all(name[: -len("-swapped")] in names for name in swapped)


def swap_string(text, swaps):
    """sigma on an element string: letters renamed, translation moved."""
    parts = text.split()
    if parts[-1].startswith("t["):
        coords = parts[-1][2:-1].split(",")
        parts[-1] = "t[" + ",".join(coords[swaps.index(i + 1)] for i in range(len(coords))) + "]"
    if parts[0] != "id" and not parts[0].startswith("t["):
        parts[0] = "*".join(f"s{swaps[int(g[1:]) - 1]}" for g in parts[0].split("*"))
    return " ".join(parts)


@pytest.mark.parametrize("spec,swaps,max_len", [("A2", (2, 1), 6), ("A3", (3, 2, 1), 5)], ids=["A2", "A3"])
def test_diagram_automorphism_on_whole_balls(spec, swaps, max_len):
    # c_{sigma x, sigma y}^{sigma z} = sigma(c_{x,y}^z) for all pairs x <= y,
    # with sigma applied to parsed elements and evaluated values; sigma on
    # elements is checked against the string rewrite, and on values against
    # moving the simple-root coordinates of each weight.
    datum = build_root_system(spec)
    ball = grassmannian_ball(datum, max_len)
    sigma = {x: constants._swap_element(x, swaps) for x in ball}
    assert set(sigma.values()) == set(ball)
    for x in ball:
        assert sigma[x] == parse_element(swap_string(format_element(x), swaps), datum)
    for w in datum.positive_roots:
        coords = [int(c) for c in weight_in_root_coords(datum, w)]
        moved = root_lattice_weight(datum, constants._swap(coords, swaps))
        assert constants._swap_value(G.monomial(w), swaps) == G.monomial(moved)
    for i, x in enumerate(ball):
        for y in ball[i:]:
            table = pontryagin_constants(x, y).entries
            image = {
                constants._swap_element(z, swaps): constants._swap_value(c, swaps) for z, c in table.items()
            }
            assert pontryagin_constants(sigma[x], sigma[y]).entries == image


def test_support_shape_warning_absent_on_paper_tables(a2):
    x = el(a2, "s1*s2*s1 t[-1,-1]")
    assert pontryagin_constants(x, x).warnings == []


def test_support_warning_threshold(a2):
    # Fabricated support: against nu = (-2, -1) the first z has offset
    # (0, -1), a coordinate of exactly -1, and the second offset 0.
    x, y = translation(a2, (-1, -1)), translation(a2, (-1, 0))
    below, level = translation(a2, (-2, -2)), translation(a2, (-2, -1))
    assert constants._support_warnings(x, y, {below: None, level: None}) == [
        f"support element {format_element(below)} has translation offset (0, -1) with a negative coordinate"
    ]


def test_rank_three_smoke(a3):
    # the machinery is rank-generic; exercise the built-in A3 table lightly
    from kschubert.weyl import coset_min, is_grassmannian

    x = coset_min(translation(a3, (-1, 0, 0)))
    assert is_grassmannian(x)
    table = pontryagin_constants(x, x)
    assert sum(c.augmentation() for c in table.entries.values()) == 1
    assert table.entries == pontryagin_constants_linear(x, x).entries
    holds, _ = translation_product_check(identity(a3), (-1, -1, -1))
    assert holds
    s1 = el(a3, "s1")
    assert classical_k_constants(identity(a3), s1) == {s1: G.one(3)}
