import itertools

import pytest

from oracles import FINITE_TYPES, pair
from kschubert.rootsys import (
    InvalidCartanMatrixError,
    UnsupportedTypeError,
    build_root_system,
    level_zero_root,
    matvec,
    root_lattice_weight,
    weight_in_root_coords,
)
from kschubert.weyl import affine_simple, weyl_group


def reflect(datum, i, weight):
    return matvec(affine_simple(datum, i).wmat, weight)


def test_a1_table(a1):
    assert a1.rank == 1
    assert a1.positive_roots == ((2,),)
    assert a1.highest_root == (2,)
    assert a1.highest_coroot == (1,)


def test_a2_table(a2):
    assert set(a2.positive_roots) == {(2, -1), (-1, 2), (1, 1)}
    assert a2.highest_root == (1, 1)
    assert a2.highest_coroot == (1, 1)
    # alpha_1 in fundamental-weight coordinates is column 1 of the Cartan matrix
    assert a2.simple_roots[0] == (2, -1)


def test_a3_has_six_positive_roots(a3):
    assert len(a3.positive_roots) == 6
    assert a3.highest_root == (1, 0, 1)


def test_custom_matrix_matches_builtin(a2):
    custom = build_root_system([[2, -1], [-1, 2]])
    assert custom.positive_roots == a2.positive_roots


def test_builtin_matrix_is_the_builtin_datum():
    # A matrix equal to a built-in table is that table: the same memoized
    # datum, label included, so label-keyed defaults and fixtures apply.
    for label in ("A1", "A2", "A3"):
        matrix = [list(row) for row in build_root_system(label).cartan]
        assert build_root_system(matrix) is build_root_system(label)
    assert build_root_system([[2, -2], [-1, 2]]).label == "custom-rank2"


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, 0], [0, 2]],  # disconnected
        [[2, -2], [-2, 2]],  # affine type
        [[2, -1], [0, 2]],  # asymmetric zero pattern
        [[1]],  # bad diagonal
        [[2, 1], [1, 2]],  # positive off-diagonal
        5,  # not a sequence
        None,
        [2],  # rows are not sequences
        [[2, -1.5], [-1, 2]],  # non-integer entries are not truncated
        [["2"]],
        [[2.9]],
        [[True]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2: only the third minor fails
        [[2, -3], [-3, 2]],  # hyperbolic
    ],
)
def test_invalid_matrices_rejected(matrix):
    with pytest.raises(InvalidCartanMatrixError):
        build_root_system(matrix)


@pytest.mark.parametrize(
    "matrix,message",
    [
        # Connectivity is decided before symmetrizability.
        ([[2, -1, -1, 0], [-2, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, 2]], "must be connected"),
        ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], "not symmetrizable"),
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "not positive definite"),
    ],
)
def test_checks_run_in_order(matrix, message):
    with pytest.raises(InvalidCartanMatrixError, match=message):
        build_root_system(matrix)


@pytest.mark.parametrize("a12,a21", itertools.product(range(0, -5, -1), repeat=2))
def test_rank_two_matrices_accepted_exactly_in_finite_type(a12, a21):
    # The finite rank-two types are A2, B2, C2 and G2: a12 a21 in {1, 2, 3}.
    matrix = [[2, a12], [a21, 2]]
    if a12 and a21 and a12 * a21 <= 3:
        assert len(build_root_system(matrix).positive_roots) == {1: 3, 2: 4, 3: 6}[a12 * a21]
    else:
        with pytest.raises(InvalidCartanMatrixError):
            build_root_system(matrix)


@pytest.mark.parametrize("label", sorted(FINITE_TYPES))
def test_root_coordinates_round_trip(label):
    # The positive roots in simple-root coordinates, closed under
    # s_i(beta) = beta - <alpha_i^vee, beta> alpha_i independently of the
    # library: each is a positive root in weight coordinates, and
    # weight_in_root_coords takes it back.
    datum = build_root_system(FINITE_TYPES[label][0])
    rank, cartan = datum.rank, datum.cartan
    roots = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i in range(rank):
            image = list(beta)
            image[i] -= sum(cartan[i][j] * beta[j] for j in range(rank))
            if tuple(image) not in roots:
                roots.add(tuple(image))
                frontier.append(tuple(image))
    positive = [c for c in roots if min(c) >= 0]
    assert {root_lattice_weight(datum, c) for c in positive} == datum.positive_root_set
    assert len(positive) == len(datum.positive_roots)
    for c in positive:
        assert weight_in_root_coords(datum, root_lattice_weight(datum, c)) == c


def test_unsupported_label():
    with pytest.raises(UnsupportedTypeError):
        build_root_system("E8")


def test_pairing_values(a1, a2):
    assert pair(a1.simple_coroots[0], a1.simple_roots[0]) == 2
    assert pair(a2.simple_coroots[0], a2.simple_roots[1]) == -1
    assert pair(a2.highest_coroot, a2.highest_root) == 2


def test_simple_reflections(a1, a2):
    alpha = a1.simple_roots[0]
    assert reflect(a1, 1, alpha) == (-2,)
    # s_1(alpha_2) = alpha_1 + alpha_2
    assert reflect(a2, 1, a2.simple_roots[1]) == (1, 1)
    # s_1(omega_1) = omega_1 - alpha_1
    assert reflect(a2, 1, (1, 0)) == (-1, 1)
    with pytest.raises(ValueError):
        reflect(a2, 3, (1, 0))


def test_level_zero_roots(a1, a2):
    assert level_zero_root(a1, 0) == (-2,)
    assert level_zero_root(a2, 0) == (-1, -1)
    assert level_zero_root(a2, 1) == a2.simple_roots[0]
    with pytest.raises(ValueError):
        level_zero_root(a2, 5)


def test_reflections_permute_positive_roots(a2):
    for i in range(1, a2.rank + 1):
        for beta in a2.positive_roots:
            image = reflect(a2, i, beta)
            neg = tuple(-x for x in image)
            assert image in a2.positive_root_set or neg in a2.positive_root_set
            if neg in a2.positive_root_set:
                assert beta == a2.simple_roots[i - 1]


def test_reflections_are_involutions(a2):
    for i in range(1, a2.rank + 1):
        for lam in [(1, 0), (0, 1), (2, -1), (-3, 5)]:
            once = reflect(a2, i, lam)
            assert reflect(a2, i, once) == lam


def test_pairing_weyl_invariance_short_elements(a2):
    group = weyl_group(a2)
    weights = [(1, 0), (0, 1), (2, -1)]
    coroots = [(1, 0), (0, 1), (1, 1)]
    for m, c in zip(group.elements, group.cmat):
        for mu in coroots:
            for lam in weights:
                assert pair(matvec(c, mu), matvec(m, lam)) == pair(mu, lam)


def test_weight_in_root_coords(a2):
    from fractions import Fraction

    assert weight_in_root_coords(a2, a2.simple_roots[0]) == (1, 0)
    assert weight_in_root_coords(a2, (1, 0)) == (Fraction(2, 3), Fraction(1, 3))


def test_positive_roots_sorted_by_height(a2):
    heights = [sum(weight_in_root_coords(a2, r)) for r in a2.positive_roots]
    assert heights == sorted(heights)


def test_highest_root_maximal_in_root_order(a2, a3):
    for datum in (a2, a3):
        theta = weight_in_root_coords(datum, datum.highest_root)
        for beta in datum.positive_roots:
            diff = [t - b for t, b in zip(theta, weight_in_root_coords(datum, beta))]
            assert all(d >= 0 for d in diff), beta
