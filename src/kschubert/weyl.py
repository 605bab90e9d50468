"""Finite and affine Weyl group elements.

An affine element is the pair (finite part w, coroot translation lam) and
stands for w t_lam.  The group law is

    (w t_lam)(v t_mu) = wv t_{v^{-1} lam + mu},

the affine simple generator is s_0 = s_theta t_{-theta^vee}, and the length
of w t_lam is

    sum over positive roots beta of | <lam, beta> + [w(beta) < 0] |.

Both conventions are pinned by fixtures (s_0 = s_1 t_{-alpha^vee} and
t_{-alpha^vee} = s_1 s_0 in A1) and the length formula is cross-validated
against breadth-first word enumeration in the tests.

Finite parts are stored as integer indices into the memoized
``weyl_group(datum)``, which lists W once per datum (|W| <= 24 for the
built-in types), identity first.  Its tables turn the hot paths into
lookups: a product is one Cayley-table read plus, when x translates, one
coroot ``matvec``; a length reads which positive roots the finite part
sends negative; and a finite element acts on ring values through its
tabulated ``ring.WeylAction``.  ``wmat`` still reads the weight-lattice
matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from types import MappingProxyType

from kschubert.ring import WeylAction, pack
from kschubert.rootsys import (
    CartanDatum,
    Coroot,
    Matrix,
    Weight,
    identity_matrix,
    level_zero_root,
    matmul,
    matvec,
)

ReducedWord = tuple[int, ...]


class ParseError(ValueError):
    """Malformed element string; ``position`` points at the offending spot."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(ValueError):
    """Syntactically fine element string that does not fit the root system."""


def _simple_weight_matrix(datum: CartanDatum, i: int) -> Matrix:
    # column j of s_i is e_j - delta_{ij} * alpha_i
    alpha = datum.simple_roots[i - 1]
    return tuple(
        tuple(int(r == c) - (alpha[r] if c == i - 1 else 0) for c in range(datum.rank))
        for r in range(datum.rank)
    )


def _simple_coroot_matrix(datum: CartanDatum, i: int) -> Matrix:
    # s_i(mu) = mu - <mu, alpha_i> alpha_i^vee; <mu, alpha_i> = sum_j mu_j A_ji
    return tuple(
        tuple(int(r == c) - (datum.cartan[c][i - 1] if r == i - 1 else 0) for c in range(datum.rank))
        for r in range(datum.rank)
    )


class _Tabulated(Sequence):
    """A read-only table whose entry k is ``build(k)``, computed on first
    lookup, so that entries no computation reads are never built."""

    __slots__ = ("_build", "_items")

    def __init__(self, size: int, build):
        self._build = build
        self._items = [None] * size

    def __len__(self):
        return len(self._items)

    def __getitem__(self, k):
        item = self._items[k]
        if item is None:
            item = self._items[k] = self._build(k)
        return item


class WeylGroup:
    """Tabulated finite Weyl group of a CartanDatum.

    Element k has the weight-lattice matrix ``elements[k]``, and ``index``
    maps a matrix back to k.  Elements are numbered in breadth-first order,
    which is (length, smallest reduced word) order: the identity is 0 and
    s_i is i.  The other tables are indexed by element:

    * ``word`` and ``length``: the smallest reduced word and its length;
    * ``inverse``;
    * ``cmat``: the coroot-lattice matrix;
    * ``product[a][b]``: the index of ab (the Cayley table);
    * ``action``: w acting on ring values (``ring.WeylAction``).

    Only the breadth-first search multiplies matrices, once per element and
    generator; ``inverse`` folds its generator table along each reversed
    word.  ``product`` and ``action`` are built one entry at a time on first
    lookup, so set-up stays the search and a large group costs only what is
    read of it.  A Cayley row folds along the search tree: each b other than
    the identity was found as p s_i from an earlier p, so ab = (ap) s_i is
    read off the same row and the generator table.  The tables are
    read-only, since ``weyl_group`` hands the same instance to every caller.
    """

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        rank = datum.rank
        gens_w = [_simple_weight_matrix(datum, i) for i in range(1, rank + 1)]
        gens_c = [_simple_coroot_matrix(datum, i) for i in range(1, rank + 1)]
        ident = identity_matrix(rank)
        mats, cmats, words, steps = [ident], [ident], [()], []
        index = {ident: 0}
        right = []  # right[k][i]: the index of element k times s_{i+1}
        k = 0
        while k < len(mats):  # the list is its own queue
            row = []
            for i in range(rank):
                m = matmul(mats[k], gens_w[i])
                j = index.get(m)
                if j is None:
                    j = index[m] = len(mats)
                    mats.append(m)
                    cmats.append(matmul(cmats[k], gens_c[i]))
                    words.append(words[k] + (i + 1,))
                    steps.append((k, i))  # element j is element k times s_{i+1}
                row.append(j)
            right.append(tuple(row))
            k += 1
        self._right, self._steps = tuple(right), tuple(steps)
        self.elements = tuple(mats)
        self.index = MappingProxyType(index)
        self.word = tuple(words)
        self.length = tuple(len(w) for w in words)
        self.inverse = tuple(self._fold(reversed(w)) for w in words)
        self.cmat = tuple(cmats)
        self.product = _Tabulated(len(mats), self._product_row)
        self.action = _Tabulated(len(mats), self._action)
        self.longest = len(mats) - 1
        assert self.length.count(self.length[-1]) == 1

    def _fold(self, letters) -> int:
        k = 0
        for i in letters:
            k = self._right[k][i - 1]
        return k

    def _product_row(self, a: int) -> tuple[int, ...]:
        right, row = self._right, [a]
        for p, i in self._steps:
            row.append(right[row[p]][i])
        return tuple(row)

    def _action(self, k: int) -> WeylAction:
        m, positive = self.elements[k], self.datum.positive_root_set

        def signed(gamma: Weight) -> tuple[Weight, bool]:
            return (gamma, False) if gamma in positive else (tuple(-c for c in gamma), True)

        return WeylAction(
            tuple(pack(col) for col in zip(*m)),
            max(sum(map(abs, row)) for row in m),
            MappingProxyType({beta: signed(matvec(m, beta)) for beta in self.datum.positive_roots}),
        )


@lru_cache(maxsize=None)
def weyl_group(datum: CartanDatum) -> WeylGroup:
    return WeylGroup(datum)


@dataclass(frozen=True)
class AffineWeylElement:
    """w t_lam: the finite part w as its index into
    ``weyl_group(datum).elements``, the translation lam in Q^vee."""

    datum: CartanDatum = field(repr=False)
    index: int
    trans: Coroot

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.datum.label, self.index, self.trans)))

    def __hash__(self):
        return self._hash  # type: ignore[attr-defined]

    @property
    def wmat(self) -> Matrix:
        """The weight-lattice matrix of the finite part."""
        return weyl_group(self.datum).elements[self.index]

    @property
    def is_identity(self) -> bool:
        return self.index == 0 and not any(self.trans)

    @property
    def is_finite(self) -> bool:
        return not any(self.trans)

    def __repr__(self):
        return f"<{format_element(self)}>"


def identity(datum: CartanDatum) -> AffineWeylElement:
    return AffineWeylElement(datum, 0, (0,) * datum.rank)


def translation(datum: CartanDatum, coroot: Coroot) -> AffineWeylElement:
    if len(coroot) != datum.rank:
        raise ValueError("rank mismatch")
    return AffineWeylElement(datum, 0, tuple(coroot))


def finite_element(datum: CartanDatum, wmat: Matrix) -> AffineWeylElement:
    """The finite element whose weight-lattice matrix is ``wmat``; raises
    ValueError when no element of W has that matrix."""
    key = tuple(map(tuple, wmat))
    k = weyl_group(datum).index.get(key)
    if k is None:
        raise ValueError(f"{key} is not the matrix of an element of the Weyl group of {datum.label}")
    return AffineWeylElement(datum, k, (0,) * datum.rank)


@lru_cache(maxsize=None)
def finite_elements(datum: CartanDatum) -> tuple[AffineWeylElement, ...]:
    """W as affine elements, in the order of ``weyl_group(datum).elements``."""
    zero = (0,) * datum.rank
    return tuple(AffineWeylElement(datum, k, zero) for k in range(len(weyl_group(datum).elements)))


def finite_part(x: AffineWeylElement) -> AffineWeylElement:
    """w for x = w t_lam."""
    return AffineWeylElement(x.datum, x.index, (0,) * x.datum.rank)


@lru_cache(maxsize=None)
def _s_theta(datum: CartanDatum) -> Matrix:
    theta, theta_vee = datum.highest_root, datum.highest_coroot
    return tuple(
        tuple(int(r == c) - theta_vee[c] * theta[r] for c in range(datum.rank))
        for r in range(datum.rank)
    )


@lru_cache(maxsize=None)
def affine_simple(datum: CartanDatum, i: int) -> AffineWeylElement:
    """The generator s_i of the affine Weyl group, s_0 = s_theta t_{-theta^vee}."""
    if i == 0:
        return AffineWeylElement(
            datum,
            weyl_group(datum).index[_s_theta(datum)],
            tuple(-c for c in datum.highest_coroot),
        )
    if 1 <= i <= datum.rank:
        return AffineWeylElement(datum, i, (0,) * datum.rank)
    raise ValueError(f"affine index {i} out of range 0..{datum.rank}")


def aff_multiply(x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
    """(w t_lam)(v t_mu) = wv t_{v^{-1} lam + mu}."""
    datum = x.datum
    if datum is not y.datum and datum != y.datum:
        raise ValueError("mixed ambient root systems")
    group = weyl_group(datum)
    trans = y.trans
    if any(x.trans):
        lam = matvec(group.cmat[group.inverse[y.index]], x.trans)
        trans = tuple(a + b for a, b in zip(lam, trans))
    return AffineWeylElement(datum, group.product[x.index][y.index], trans)


@lru_cache(maxsize=None)
def length(x: AffineWeylElement) -> int:
    """Iwahori-Matsumoto length of w t_lam via the closed formula over
    positive roots (validated against word enumeration in the tests)."""
    roots = weyl_group(x.datum).action[x.index].roots
    return sum(
        abs(sum(map(mul, x.trans, beta)) + flipped) for beta, (_, flipped) in roots.items()
    )


def left_descent(x: AffineWeylElement) -> int:
    """The smallest i with l(s_i x) < l(x); x must not be the identity."""
    lx = length(x)
    return next(
        i
        for i in range(x.datum.rank + 1)
        if length(aff_multiply(affine_simple(x.datum, i), x)) < lx
    )


@lru_cache(maxsize=None)
def reduced_word(x: AffineWeylElement) -> ReducedWord:
    """Greedy left-descent peeling with smallest-index tie break; the result
    is deterministic and evaluating it reproduces x."""
    word: list[int] = []
    current = x
    while not current.is_identity:
        i = left_descent(current)
        word.append(i)
        current = aff_multiply(affine_simple(current.datum, i), current)
    return tuple(word)


@lru_cache(maxsize=None)
def bruhat_leq(u: AffineWeylElement, v: AffineWeylElement) -> bool:
    """Bruhat order via the lifting property, recursing on left descents."""
    if u == v:
        return True
    if length(u) >= length(v):
        return False
    i = left_descent(v)
    s = affine_simple(u.datum, i)
    sv = aff_multiply(s, v)
    su = aff_multiply(s, u)
    if length(su) < length(u):
        return bruhat_leq(su, sv)
    return bruhat_leq(u, sv)


@lru_cache(maxsize=None)
def is_grassmannian(x: AffineWeylElement) -> bool:
    """x is the minimal-length element of its coset x W."""
    lx = length(x)
    return all(
        length(aff_multiply(x, affine_simple(x.datum, i))) > lx
        for i in range(1, x.datum.rank + 1)
    )


def coset_min(x: AffineWeylElement) -> AffineWeylElement:
    """Minimal-length representative of x W."""
    while True:
        lx = length(x)
        for i in range(1, x.datum.rank + 1):
            xs = aff_multiply(x, affine_simple(x.datum, i))
            if length(xs) < lx:
                x = xs
                break
        else:
            return x


@lru_cache(maxsize=None)
def lower_interval(x: AffineWeylElement) -> frozenset[AffineWeylElement]:
    """All v <= x, collected as the distinct evaluations of subwords of one
    reduced word of x (the subword property makes this the lower interval)."""
    current = {identity(x.datum)}
    for i in reduced_word(x):
        s = affine_simple(x.datum, i)
        current |= {aff_multiply(v, s) for v in current}
    return frozenset(current)


def reflection_roots(datum: CartanDatum, letters) -> list[Weight]:
    """gamma_j = s_{beta_1} ... s_{beta_{j-1}}(beta_j) for a word in the
    affine alphabet, everything taken through the level-zero action (the
    affine node contributes -theta and acts as s_theta)."""
    group = weyl_group(datum)
    prefix = 0
    out = []
    for i in letters:
        out.append(matvec(group.elements[prefix], level_zero_root(datum, i)))
        prefix = group.product[prefix][affine_simple(datum, i).index]
    return out


def demazure_extend(x: AffineWeylElement, i: int) -> AffineWeylElement:
    xs = aff_multiply(x, affine_simple(x.datum, i))
    return xs if length(xs) > length(x) else x


def coset_translation(x: AffineWeylElement) -> Coroot:
    """Coordinate of the unique translation in the coset x W: for x = w t_lam
    the coset contains t_{w lam} and nothing else of translation type."""
    return matvec(weyl_group(x.datum).cmat[x.index], x.trans)


def _word_layers(datum: CartanDatum, max_length: int):
    """Breadth-first walk from the identity by right multiplication with the
    affine simple generators: layer d holds the elements first reached by a
    d-letter word, so its index measures length without the closed formula."""
    layer = [identity(datum)]
    seen = set(layer)
    yield layer
    for _ in range(max_length):
        nxt = []
        for x in layer:
            for i in range(datum.rank + 1):
                y = aff_multiply(x, affine_simple(datum, i))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        layer = nxt
        yield layer


@lru_cache(maxsize=None)
def affine_ball(datum: CartanDatum, max_length: int) -> tuple[AffineWeylElement, ...]:
    """All affine elements of length <= max_length, by breadth-first search;
    deterministic order (length, reduced word)."""
    ball = [x for layer in _word_layers(datum, max_length) for x in layer]
    return tuple(sorted(ball, key=lambda x: (length(x), reduced_word(x))))


def grassmannian_ball(datum: CartanDatum, max_length: int) -> tuple[AffineWeylElement, ...]:
    return tuple(x for x in affine_ball(datum, max_length) if is_grassmannian(x))


def weyl_act(x: AffineWeylElement, f):
    """Level-zero action of an affine element on a ring value: the finite
    part acts on exponents, the translation part acts trivially.  Values are
    read-only, so the identity hands f back itself."""
    return f.act(weyl_group(x.datum).action[x.index]) if x.index else f


# Element grammar -------------------------------------------------------------
#
#   element  := "id" [ trans ] | word [ trans ] | trans
#   word     := "s" digits ( "*" "s" digits )*
#   trans    := "t[" int ( "," int )* "]"
#
# e.g. "s1 t[-1]", "s1*s2 t[-1,-1]", "t[-2,-2]", "id".


def parse_element(text: str, datum: CartanDatum) -> AffineWeylElement:
    """Parse the element grammar; raises ParseError / ValidationError."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty element string", 0)
    parts = stripped.split()
    if len(parts) > 2:
        raise ParseError("too many whitespace-separated parts", len(parts[0]))
    word_part: str | None = None
    trans_part: str | None = None
    if parts[0].startswith("t["):
        if len(parts) == 2:
            raise ParseError("translation must come last", len(parts[0]))
        trans_part = parts[0]
    else:
        word_part = parts[0]
        if len(parts) == 2:
            trans_part = parts[1]
    out = identity(datum)
    if word_part is not None and word_part != "id":
        for chunk in word_part.split("*"):
            if not chunk.startswith("s") or not chunk[1:].isdigit():
                raise ParseError(
                    f"expected simple reflection like 's1', got {chunk!r}",
                    text.find(chunk),
                )
            idx = int(chunk[1:])
            if not 1 <= idx <= datum.rank:
                raise ValidationError(
                    f"reflection index {idx} out of range 1..{datum.rank}"
                )
            out = aff_multiply(out, affine_simple(datum, idx))
    if trans_part is not None:
        if not (trans_part.startswith("t[") and trans_part.endswith("]")):
            raise ParseError("translation must look like t[-1,0]", text.find(trans_part))
        body = trans_part[2:-1]
        try:
            coords = tuple(int(c.strip()) for c in body.split(","))
        except ValueError:
            raise ParseError(f"bad translation coordinates {body!r}", text.find(body))
        if len(coords) != datum.rank:
            raise ValidationError(
                f"translation has {len(coords)} coordinates, rank is {datum.rank}"
            )
        out = aff_multiply(out, translation(datum, coords))
    return out


def format_element(x: AffineWeylElement) -> str:
    """Canonical string: reduced word of the finite part, then the coroot
    translation; reparses to an equal element."""
    word = weyl_group(x.datum).word[x.index]
    word_str = "*".join(f"s{i}" for i in word) if word else "id"
    if any(x.trans):
        trans_str = "t[" + ",".join(str(c) for c in x.trans) + "]"
        return trans_str if not word else f"{word_str} {trans_str}"
    return word_str
