"""Root-system tables for finite Cartan data.

Conventions used throughout the package:

* weights are integer coordinate vectors in the fundamental-weight basis,
* coroots are integer coordinate vectors in the simple-coroot basis,
* with these bases the canonical pairing <coroot, weight> is a plain dot
  product, and the simple root alpha_j has fundamental-weight coordinates
  equal to column j of the Cartan matrix.

Built-in tables cover types A1, A2 and A3.  Any other finite-type Cartan
matrix of an irreducible root system can be supplied explicitly as a square
integer matrix.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from operator import mul

Weight = tuple[int, ...]
Coroot = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_BUILTIN: dict[str, Matrix] = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
}

# Orbit generation must terminate for valid input; the cap only guards
# against a positive-definiteness check gone wrong.
_MAX_ROOTS = 1000
# The largest order of a Weyl group that ``weyl.WeylGroup`` tabulates: A6,
# F4 and E6 (51,840 elements) fit, E7 (2,903,040) and E8 do not.
MAX_WEYL_ORDER = 100_000


class UnsupportedTypeError(ValueError):
    """Requested type label has no built-in table."""


class InvalidCartanMatrixError(ValueError):
    """Input matrix is not a Cartan matrix of irreducible finite type."""


def matvec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def identity_matrix(rank: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


class Frozen:
    """Base of the immutable value classes: the constructor fills the slots
    once, through ``object.__setattr__`` or the slot descriptors, and
    assigning or deleting an attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


class CartanDatum(Frozen):
    """Immutable root-system data shared by every other module.

    ``positive_roots`` and ``positive_coroots`` are aligned: entry k of the
    latter is the coroot of entry k of the former.  ``det`` is det(A) and
    ``adjugate`` the integral matrix det(A) A^{-1}.  ``weyl_order`` is |W| =
    n! det(A) prod a_i, the a_i the simple-root coefficients of the highest
    root.  Equality and the hash, computed once, read (label, cartan) only.
    Safe to share across threads once built.
    """

    __slots__ = (
        "label", "cartan", "simple_roots", "simple_coroots", "positive_roots", "positive_coroots",
        "highest_root", "highest_coroot", "positive_root_set", "adjugate", "det", "weyl_order", "_hash",
    )

    def __init__(
        self, label: str, cartan: Matrix, simple_roots: tuple[Weight, ...], simple_coroots: tuple[Coroot, ...],
        positive_roots: tuple[Weight, ...], positive_coroots: tuple[Coroot, ...], highest_root: Weight,
        highest_coroot: Coroot, positive_root_set: frozenset[Weight], adjugate: Matrix, det: int, weyl_order: int,
    ):
        # Every memo of the other layers is keyed on the datum: hash it once.
        self._fill(
            label, cartan, simple_roots, simple_coroots, positive_roots, positive_coroots, highest_root,
            highest_coroot, positive_root_set, adjugate, det, weyl_order, hash((label, cartan)),
        )

    def __eq__(self, other):
        if other.__class__ is not CartanDatum:
            return NotImplemented
        return self is other or (self.label == other.label and self.cartan == other.cartan)

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def __repr__(self) -> str:
        return f"CartanDatum({self.label!r})"


def _check_cartan(cartan: Matrix) -> tuple[int, Matrix]:
    """Raise unless ``cartan`` is a Cartan matrix of irreducible finite type;
    returns its determinant and its adjugate."""
    rank = len(cartan)
    if rank == 0 or any(len(row) != rank for row in cartan):
        raise InvalidCartanMatrixError("Cartan matrix must be square and nonempty")
    for i in range(rank):
        if cartan[i][i] != 2:
            raise InvalidCartanMatrixError("diagonal entries must equal 2")
        for j in range(rank):
            if i != j:
                if cartan[i][j] > 0:
                    raise InvalidCartanMatrixError("off-diagonal entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise InvalidCartanMatrixError(
                        "zero pattern must be symmetric"
                    )

    # Symmetrizer d_i > 0 with d_i a_ij = d_j a_ji, by one walk of the
    # Dynkin diagram from node 0, d_i kept as a fraction num/den of positive
    # integers: a node it never reaches means the diagram is disconnected,
    # so there is no highest root and no affine node.
    d = [(0, 1)] * rank
    d[0] = (1, 1)
    frontier = [0]
    symmetrizable = True
    while frontier:
        i = frontier.pop()
        for j in range(rank):
            if cartan[i][j] != 0 and i != j:
                dj = (d[i][0] * -cartan[i][j], d[i][1] * -cartan[j][i])
                if d[j][0] == 0:
                    d[j] = dj
                    frontier.append(j)
                elif d[j][0] * dj[1] != dj[0] * d[j][1]:
                    symmetrizable = False
    if not all(num for num, _ in d):
        raise InvalidCartanMatrixError("Dynkin diagram must be connected")
    if not symmetrizable:
        raise InvalidCartanMatrixError("matrix is not symmetrizable")
    # Fraction-free (Bareiss) Gauss-Jordan on [A | I] without row swaps: the
    # k-th pivot is the k-th leading principal minor of A, every division by
    # the previous pivot is exact, and those minors of d.A have the same
    # signs (each d_i > 0), so by Sylvester's criterion the symmetrized
    # matrix is positive definite (finite type) exactly when every pivot is
    # positive.  The last pivot is det(A); the left half ends as det(A) I and
    # the right half as the adjugate det(A) A^{-1}.
    aug = [list(row) + [int(i == j) for j in range(rank)] for i, row in enumerate(cartan)]
    previous = 1
    for k in range(rank):
        pivot, pivot_row = aug[k][k], aug[k]
        if pivot <= 0:
            raise InvalidCartanMatrixError(
                "symmetrized matrix is not positive definite (not finite type)"
            )
        for r in range(rank):
            if r != k:
                factor = aug[r][k]
                aug[r] = [(pivot * a - factor * b) // previous for a, b in zip(aug[r], pivot_row)]
        previous = pivot
    return previous, tuple(tuple(row[rank:]) for row in aug)


def _reflect_root(cartan: Matrix, i: int, root: tuple[int, ...]) -> tuple[int, ...]:
    # root in simple-root coordinates; s_i(beta) = beta - <a_i^vee, beta> a_i
    p = sum(cartan[i][j] * root[j] for j in range(len(root)))
    out = list(root)
    out[i] -= p
    return tuple(out)


def _reflect_coroot(cartan: Matrix, i: int, coroot: tuple[int, ...]) -> tuple[int, ...]:
    # s_i(mu^vee) = mu^vee - <mu^vee, a_i> a_i^vee
    p = sum(coroot[j] * cartan[j][i] for j in range(len(coroot)))
    out = list(coroot)
    out[i] -= p
    return tuple(out)


@lru_cache(maxsize=None)
def _build_from_matrix(cartan: Matrix, label: str) -> CartanDatum:
    det, adjugate = _check_cartan(cartan)
    rank = len(cartan)

    # Breadth-first closure of {simple roots} under all simple reflections,
    # tracking (root, coroot) pairs so that coroots of non-simple roots come
    # for free: (w beta)^vee = w(beta^vee).
    start = [
        (tuple(int(k == j) for k in range(rank)),) * 2 for j in range(rank)
    ]
    orbit = set(start)
    frontier = list(start)
    while frontier:
        root, coroot = frontier.pop()
        for i in range(rank):
            image = (_reflect_root(cartan, i, root), _reflect_coroot(cartan, i, coroot))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
        if len(orbit) > _MAX_ROOTS:
            raise InvalidCartanMatrixError("root system is not finite")

    positive = sorted(
        (pair for pair in orbit if all(c >= 0 for c in pair[0])),
        key=lambda pair: (sum(pair[0]), pair[0]),
    )
    if 2 * len(positive) != len(orbit):
        raise InvalidCartanMatrixError("root orbit is not symmetric")

    def fund(root: tuple[int, ...]) -> Weight:
        return matvec(cartan, root)

    top_height = sum(positive[-1][0])
    if sum(1 for r, _ in positive if sum(r) == top_height) != 1:
        raise InvalidCartanMatrixError("highest root is not unique")

    return CartanDatum(
        label=label,
        cartan=cartan,
        simple_roots=tuple(fund(r) for r, _ in start),
        simple_coroots=tuple(c for _, c in start),
        positive_roots=tuple(fund(r) for r, _ in positive),
        positive_coroots=tuple(c for _, c in positive),
        highest_root=fund(positive[-1][0]),
        highest_coroot=positive[-1][1],
        positive_root_set=frozenset(fund(r) for r, _ in positive),
        adjugate=adjugate,
        det=det,
        weyl_order=factorial(rank) * det * prod(positive[-1][0]),
    )


def build_root_system(spec: str | list | tuple) -> CartanDatum:
    """Build a CartanDatum from a type label ("A1", "A2", "A3") or an
    explicit Cartan matrix given as a sequence of rows; a matrix equal to a
    built-in table gets that table's datum, label included.

    >>> build_root_system("A2").highest_root
    (1, 1)
    """
    if isinstance(spec, str):
        key = spec.strip().upper()
        if key not in _BUILTIN:
            raise UnsupportedTypeError(
                f"unsupported type label {spec!r}; built-ins: {sorted(_BUILTIN)}"
            )
        return _build_from_matrix(_BUILTIN[key], key)
    if not isinstance(spec, (list, tuple)) or not all(
        isinstance(row, (list, tuple))
        and all(isinstance(entry, int) and not isinstance(entry, bool) for entry in row)
        for row in spec
    ):
        raise InvalidCartanMatrixError("Cartan matrix must be a sequence of rows of integers")
    matrix = tuple(tuple(row) for row in spec)
    label = next((key for key, table in _BUILTIN.items() if table == matrix), f"custom-rank{len(matrix)}")
    return _build_from_matrix(matrix, label)


def level_zero_root(datum: CartanDatum, i: int) -> Weight:
    """Level-zero image of the affine simple root: alpha_i for i >= 1 and
    -theta for the affine node i = 0."""
    if i == 0:
        return tuple(-c for c in datum.highest_root)
    if 1 <= i <= datum.rank:
        return datum.simple_roots[i - 1]
    raise ValueError(f"affine index {i} out of range 0..{datum.rank}")


def weight_in_root_coords(datum: CartanDatum, weight: Weight) -> tuple:
    """Express a weight in the simple-root basis: ints on the root lattice,
    Fractions for a weight outside it."""
    scaled, det = matvec(datum.adjugate, weight), datum.det
    if all(c % det == 0 for c in scaled):
        return tuple(c // det for c in scaled)
    from fractions import Fraction  # only off the root lattice

    return tuple(Fraction(c, det) for c in scaled)


def root_lattice_weight(datum: CartanDatum, root_coords) -> Weight:
    """Weight-lattice coordinates of an integer combination of simple roots."""
    if len(root_coords) != datum.rank:
        raise ValueError("rank mismatch")
    return matvec(datum.cartan, root_coords)
