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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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


class UnsupportedTypeError(ValueError):
    """Requested type label has no built-in table."""


class InvalidCartanMatrixError(ValueError):
    """Input matrix is not a Cartan matrix of irreducible finite type."""


def matvec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def identity_matrix(rank: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


@dataclass(frozen=True)
class CartanDatum:
    """Immutable root-system data shared by every other module.

    ``positive_roots`` and ``positive_coroots`` are aligned: entry k of the
    latter is the coroot of entry k of the former.  Safe to share across
    threads once built.
    """

    label: str
    cartan: Matrix
    simple_roots: tuple[Weight, ...] = field(compare=False)
    simple_coroots: tuple[Coroot, ...] = field(compare=False)
    positive_roots: tuple[Weight, ...] = field(compare=False)
    positive_coroots: tuple[Coroot, ...] = field(compare=False)
    highest_root: Weight = field(compare=False)
    highest_coroot: Coroot = field(compare=False)
    positive_root_set: frozenset[Weight] = field(compare=False, repr=False)

    def __post_init__(self):
        # Every memo of the other layers is keyed on the datum: hash it once.
        object.__setattr__(self, "_hash", hash((self.label, self.cartan)))

    def __hash__(self):
        return self._hash  # type: ignore[attr-defined]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def __repr__(self) -> str:
        return f"CartanDatum({self.label!r})"


def _check_cartan(cartan: Matrix) -> None:
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

    # Irreducibility: the Dynkin diagram must be connected, otherwise there
    # is no highest root and no affine node.
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(rank):
            if j not in seen and cartan[i][j] != 0:
                seen.add(j)
                frontier.append(j)
    if len(seen) != rank:
        raise InvalidCartanMatrixError("Dynkin diagram must be connected")

    # Symmetrizer d_i > 0 with d_i a_ij = d_j a_ji, then Sylvester's
    # criterion on the symmetrized matrix decides finite type.
    d = [Fraction(0)] * rank
    d[0] = Fraction(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(rank):
            if cartan[i][j] != 0 and i != j:
                dj = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] == 0:
                    d[j] = dj
                    frontier.append(j)
                elif d[j] != dj:
                    raise InvalidCartanMatrixError("matrix is not symmetrizable")
    sym = [[d[i] * cartan[i][j] for j in range(rank)] for i in range(rank)]
    # Elimination without row swaps: the k-th pivot is the ratio of the k-th
    # to the (k-1)-th leading principal minor, so the pivots are all positive
    # exactly when the minors are.
    for k in range(rank):
        if sym[k][k] <= 0:
            raise InvalidCartanMatrixError(
                "symmetrized matrix is not positive definite (not finite type)"
            )
        for r in range(k + 1, rank):
            factor = sym[r][k] / sym[k][k]
            for c in range(k, rank):
                sym[r][c] -= factor * sym[k][c]


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
    _check_cartan(cartan)
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
    )


def build_root_system(spec: str | list | tuple, label: str | None = None) -> CartanDatum:
    """Build a CartanDatum from a type label ("A1", "A2", "A3") or an
    explicit Cartan matrix given as a sequence of rows.

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
    return _build_from_matrix(matrix, label or f"custom-rank{len(matrix)}")


def level_zero_root(datum: CartanDatum, i: int) -> Weight:
    """Level-zero image of the affine simple root: alpha_i for i >= 1 and
    -theta for the affine node i = 0."""
    if i == 0:
        return tuple(-c for c in datum.highest_root)
    if 1 <= i <= datum.rank:
        return datum.simple_roots[i - 1]
    raise ValueError(f"affine index {i} out of range 0..{datum.rank}")


@lru_cache(maxsize=None)
def _inverse_cartan(datum: CartanDatum) -> tuple[tuple[Fraction, ...], ...]:
    n = datum.rank
    aug = [
        [Fraction(datum.cartan[i][j]) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [entry / scale for entry in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def weight_in_root_coords(datum: CartanDatum, weight: Weight) -> tuple[Fraction, ...]:
    """Express a weight in the simple-root basis; coordinates may be
    fractional for weights outside the root lattice."""
    inv = _inverse_cartan(datum)
    return tuple(sum(row[j] * weight[j] for j in range(datum.rank)) for row in inv)


def root_lattice_weight(datum: CartanDatum, root_coords) -> Weight:
    """Weight-lattice coordinates of an integer combination of simple roots."""
    if len(root_coords) != datum.rank:
        raise ValueError("rank mismatch")
    out = [0] * datum.rank
    for j, k in enumerate(root_coords):
        for i in range(datum.rank):
            out[i] += k * datum.simple_roots[j][i]
    return tuple(out)
