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

Every walk over elements steps codes, the tuples (finite index,
translation), and builds an ``AffineWeylElement`` only for what it hands
out.  ``WeylGroup.left`` is left multiplication by each affine generator on
codes, and ``WeylGroup.left_roots`` decides a left descent by one root
(``descends``), with no length; ``walk`` peels the smallest one off x, for
``reduced_word`` and both nilHecke kernels.  A right descent of x is a left
descent of x^{-1} (``inverse_code``).  ``code_length`` is the one length
memo.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from operator import add, mul
from types import MappingProxyType

from kschubert.ring import WeylAction, pack, unpack
from kschubert.rootsys import (
    MAX_WEYL_ORDER,
    CartanDatum,
    Coroot,
    Frozen,
    Matrix,
    Weight,
    identity_matrix,
    level_zero_root,
    matvec,
)

ReducedWord = tuple[int, ...]
Code = tuple[int, Coroot]  # (finite index, translation) of w t_lam


class ParseError(ValueError):
    """Malformed element string; ``position`` points at the offending spot."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(ValueError):
    """Syntactically fine element string that does not fit the root system."""


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
    * ``cmat``: the coroot-lattice matrix, the transpose of the inverse's
      weight-lattice matrix, since the pairing is a dot product;
    * ``product[a][b]``: the index of ab (the Cayley table);
    * ``action``: w acting on ring values (``ring.WeylAction``).

    Only the breadth-first search builds matrices, one column per element
    and generator, and a group of more than ``rootsys.MAX_WEYL_ORDER`` elements
    is refused before it; ``inverse`` folds its generator table along each
    reversed word.  ``product`` and ``action`` are built one entry at a time
    on first lookup, so set-up stays the search and a large group costs only
    what is read of it.  A Cayley row folds along the search tree: each b
    other than the identity was found as p s_i from an earlier p, so
    ab = (ap) s_i is read off the same row and the generator table.  The
    tables are read-only, since ``weyl_group`` hands the same instance to
    every caller.
    """

    def __init__(self, datum: CartanDatum):
        if datum.weyl_order > MAX_WEYL_ORDER:
            raise ValueError(
                f"the Weyl group of {datum.label} has {datum.weyl_order} elements, "
                f"more than the {MAX_WEYL_ORDER} that are tabulated"
            )
        self.datum = datum
        rank = datum.rank
        # M s_i differs from M only in column i, which is M(e_i - alpha_i).
        # The search keys each M by its columns packed (``ring.pack``, which
        # is linear; W's matrices have entries far inside its range), so that
        # column is one integer combination of M's, the others are shared,
        # and only a new element's column is unpacked.
        combos = [  # for each i, e_i - alpha_i on its support, that of alpha_i
            (tuple(r for r, a in enumerate(alpha) if a), tuple(int(r == i) - a for r, a in enumerate(alpha) if a))
            for i, alpha in enumerate(datum.simple_roots)
        ]
        ident = identity_matrix(rank)
        packed, columns, words, steps = [tuple(map(pack, ident))], [ident], [()], []
        seen = {packed[0]: 0}
        right = []  # right[k][i]: the index of element k times s_{i+1}
        k = 0
        while k < len(packed):  # the list is its own queue
            keys, row = packed[k], []
            for i, (support, coeffs) in enumerate(combos):
                key = sum(map(mul, coeffs, [keys[r] for r in support]))
                m = keys[:i] + (key,) + keys[i + 1 :]
                j = seen.get(m)
                if j is None:
                    j = seen[m] = len(packed)
                    packed.append(m)
                    columns.append(columns[k][:i] + (unpack(key, rank),) + columns[k][i + 1 :])
                    words.append(words[k] + (i + 1,))
                    steps.append((k, i))  # element j is element k times s_{i+1}
                row.append(j)
            right.append(tuple(row))
            k += 1
        self._right, self._steps, self._columns = tuple(right), tuple(steps), tuple(packed)
        self.elements = tuple(tuple(zip(*cols)) for cols in columns)
        self.index = MappingProxyType({m: k for k, m in enumerate(self.elements)})
        self.word = tuple(words)
        self.inverse = tuple(self._fold(reversed(w)) for w in words)
        self.cmat = tuple(columns[j] for j in self.inverse)
        self.product = _Tabulated(len(packed), self._product_row)
        self.action = _Tabulated(len(packed), self._action)
        self.longest = len(packed) - 1
        assert [len(w) for w in words].count(len(words[-1])) == 1
        self._lengths: dict[Code, int] = {}

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
            self._columns[k],
            max(sum(map(abs, row)) for row in m),
            MappingProxyType({beta: signed(matvec(m, beta)) for beta in self.datum.positive_roots}),
        )

    @cached_property
    def left(self) -> tuple[tuple[tuple[int, ...], tuple[Coroot, ...] | None], ...]:
        """Entry i is (row, shifts) for the affine generator s_i = a t_tau:
        s_i (k, lam) = (row[k], shifts[k] + lam), where row is the Cayley
        row of a and shifts[k] = w_k^{-1}(tau); ``shifts`` is None for
        finite i, whose tau is 0.  Built on first read."""
        out = []
        for i in range(self.datum.rank + 1):
            s = affine_simple(self.datum, i)
            shifts = None
            if i == 0:
                shifts = tuple(matvec(self.cmat[self.inverse[k]], s.trans) for k in range(len(self.elements)))
            out.append((self.product[s.index], shifts))
        return tuple(out)

    def left_code(self, i: int, code: Code) -> Code:
        """s_i times the element with code ``code``, as a code."""
        row, shifts = self.left[i]
        k, lam = code
        return (row[k], lam) if shifts is None else (row[k], tuple(map(add, shifts[k], lam)))

    @cached_property
    def left_roots(self) -> tuple[tuple[tuple[Weight, bool, int], ...], ...]:
        """Entry [i][k] is (gamma, gamma < 0, pack(gamma)) for the level-zero
        root gamma = w_k^{-1}(alpha_i), alpha_0 = -theta; built on first read."""
        datum, inverses = self.datum, [self.elements[j] for j in self.inverse]
        gammas = ([matvec(m, level_zero_root(datum, i)) for m in inverses] for i in range(datum.rank + 1))
        return tuple(tuple((g, g not in datum.positive_root_set, pack(g)) for g in row) for row in gammas)

    def descends(self, i: int, code: Code) -> bool:
        """l(s_i x) < l(x) for x = w_k t_lam: x^{-1}(alpha_i) = gamma + m delta,
        gamma = w_k^{-1}(alpha_i), m = [i = 0] + <lam, gamma>, is negative."""
        gamma, negative, _ = self.left_roots[i][code[0]]
        m = (i == 0) + sum(map(mul, code[1], gamma))
        return m < 0 or (m == 0 and negative)

    def code_length(self, code: Code) -> int:
        """Iwahori-Matsumoto length of w t_lam via the closed formula over
        positive roots (validated against word enumeration in the tests),
        memoized by code."""
        n = self._lengths.get(code)
        if n is None:
            k, lam = code
            n = self._lengths[code] = sum(
                abs(sum(map(mul, lam, beta)) + flipped) for beta, (_, flipped) in self.action[k].roots.items()
            )
        return n

    def code_descent(self, code: Code) -> int:
        """The smallest i with l(s_i x) < l(x); x must not be the identity."""
        return next(i for i in range(self.datum.rank + 1) if self.descends(i, code))

    def walk(self, code: Code, stop, limit: int | None = None) -> tuple[Code, list[tuple[int, Code]]]:
        """Peels the smallest left descent i off x = s_i u until ``stop``
        accepts the code reached, or ``limit`` letters are peeled; returns
        that code and the steps (i, s_i u) back up to x."""
        steps: list[tuple[int, Code]] = []
        while len(steps) != limit and not stop(code):
            i = self.code_descent(code)
            steps.append((i, code))
            code = self.left_code(i, code)
        steps.reverse()
        return code, steps

    def inverse_code(self, code: Code) -> Code:
        """(w t_lam)^{-1} = w^{-1} t_{-w(lam)}."""
        k, lam = code
        return self.inverse[k], tuple(-c for c in matvec(self.cmat[k], lam))


@lru_cache(maxsize=None)
def weyl_group(datum: CartanDatum) -> WeylGroup:
    return WeylGroup(datum)


class AffineWeylElement(Frozen):
    """w t_lam: the finite part w as its index into
    ``weyl_group(datum).elements``, the translation lam in Q^vee.
    Immutable; equal elements share (datum, index, trans) and the hash,
    computed once."""

    __slots__ = ("datum", "index", "trans", "_hash")

    def __init__(self, datum: CartanDatum, index: int, trans: Coroot):
        # The slot descriptors fill the slots: the constructor is on every
        # product, and this is cheaper than a call of object.__setattr__ each.
        _set_datum(self, datum)
        _set_index(self, index)
        _set_trans(self, trans)
        _set_hash(self, hash((datum.label, index, trans)))

    def __eq__(self, other):
        if other.__class__ is not AffineWeylElement:
            return NotImplemented
        return (self.index, self.trans, self.datum) == (other.index, other.trans, other.datum)

    def __hash__(self):
        return self._hash

    @property
    def wmat(self) -> Matrix:
        """The weight-lattice matrix of the finite part."""
        return weyl_group(self.datum).elements[self.index]

    @property
    def is_finite(self) -> bool:
        return not any(self.trans)

    def __repr__(self):
        return f"<{format_element(self)}>"


_set_datum, _set_index, _set_trans, _set_hash = (
    getattr(AffineWeylElement, name).__set__ for name in AffineWeylElement.__slots__
)


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
def affine_simple(datum: CartanDatum, i: int) -> AffineWeylElement:
    """The generator s_i of the affine Weyl group, s_0 = s_theta t_{-theta^vee}."""
    if i == 0:
        theta, theta_vee = datum.highest_root, datum.highest_coroot
        s_theta = tuple(
            tuple(int(r == c) - theta_vee[c] * theta[r] for c in range(datum.rank))
            for r in range(datum.rank)
        )
        return AffineWeylElement(datum, weyl_group(datum).index[s_theta], tuple(-c for c in theta_vee))
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


def length(x: AffineWeylElement) -> int:
    """Iwahori-Matsumoto length of w t_lam (``WeylGroup.code_length``)."""
    return weyl_group(x.datum).code_length((x.index, x.trans))


@lru_cache(maxsize=None)
def reduced_word(x: AffineWeylElement) -> ReducedWord:
    """The letters that ``WeylGroup.walk`` peels off x down to the identity,
    smallest index first: deterministic, and evaluating it reproduces x."""
    _, steps = weyl_group(x.datum).walk((x.index, x.trans), (0, (0,) * x.datum.rank).__eq__)
    return tuple(i for i, _ in reversed(steps))


@lru_cache(maxsize=None)
def is_grassmannian(x: AffineWeylElement) -> bool:
    """x is the minimal-length element of its coset x W: no finite s_i is a
    right descent of x, that is a left descent of x^{-1}."""
    group = weyl_group(x.datum)
    inverse = group.inverse_code((x.index, x.trans))
    return not any(group.descends(i, inverse) for i in range(1, x.datum.rank + 1))


def coset_min(x: AffineWeylElement) -> AffineWeylElement:
    """Minimal-length representative of x W: peels finite right descents off
    x, as left descents of x^{-1}, at most l(w0) of them."""
    group = weyl_group(x.datum)
    code = group.inverse_code((x.index, x.trans))
    while True:
        i = next((i for i in range(1, x.datum.rank + 1) if group.descends(i, code)), 0)
        if not i:
            return AffineWeylElement(x.datum, *group.inverse_code(code))
        code = group.left_code(i, code)


@lru_cache(maxsize=None)
def lower_interval(x: AffineWeylElement) -> frozenset[AffineWeylElement]:
    """All v <= x, collected as the distinct evaluations of subwords of one
    reduced word of x (the subword property makes this the lower interval),
    multiplied on codes from the right end of the word."""
    group = weyl_group(x.datum)
    current = {(0, (0,) * x.datum.rank)}
    for i in reversed(reduced_word(x)):
        current |= {group.left_code(i, v) for v in current}
    return frozenset(AffineWeylElement(x.datum, *v) for v in current)


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


def coset_translation(x: AffineWeylElement) -> Coroot:
    """Coordinate of the unique translation in the coset x W: for x = w t_lam
    the coset contains t_{w lam} and nothing else of translation type."""
    return matvec(weyl_group(x.datum).cmat[x.index], x.trans)


def _word_layers(datum: CartanDatum, max_length: int):
    """Breadth-first walk on codes from the identity by left multiplication
    with the affine generators: layer d holds the elements first reached by
    a d-letter word, so its index is their length without the closed formula."""
    group = weyl_group(datum)
    layer = [(0, (0,) * datum.rank)]
    seen = set(layer)
    yield [identity(datum)]
    for _ in range(max_length):
        nxt = []
        for code in layer:
            for i in range(datum.rank + 1):
                y = group.left_code(i, code)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        layer = nxt
        yield [AffineWeylElement(datum, *y) for y in layer]


@lru_cache(maxsize=None)
def affine_ball(datum: CartanDatum, max_length: int) -> tuple[AffineWeylElement, ...]:
    """All affine elements of length <= max_length, by breadth-first search;
    deterministic order (length, reduced word), a layer at a time."""
    layers = _word_layers(datum, max_length)
    return tuple(x for layer in layers for x in sorted(layer, key=reduced_word))


def grassmannian_ball(datum: CartanDatum, max_length: int) -> tuple[AffineWeylElement, ...]:
    return tuple(x for x in affine_ball(datum, max_length) if is_grassmannian(x))


# Element grammar -------------------------------------------------------------
#
#   element  := "id" [ trans ] | word [ trans ] | trans
#   word     := "s" digits ( "*" "s" digits )*
#   trans    := "t[" int ( "," int )* "]"
#
# e.g. "s1 t[-1]", "s1*s2 t[-1,-1]", "t[-2,-2]", "id".


def parse_element(text: str, datum: CartanDatum) -> AffineWeylElement:
    """Parse the element grammar; raises ParseError / ValidationError."""
    parts, at = [], 0  # each whitespace-separated part with its offset in text
    for part in text.split():
        at = text.index(part, at)
        parts.append((at, part))
        at += len(part)
    if not parts:
        raise ParseError("empty element string", 0)
    if len(parts) > 2:
        raise ParseError("too many whitespace-separated parts", parts[2][0])
    if parts[0][1].startswith("t["):
        if len(parts) == 2:
            raise ParseError("translation must come last", parts[1][0])
        parts.insert(0, (0, "id"))  # a lone translation has the identity word
    letters, coords = [], (0,) * datum.rank
    at, word = parts[0]
    if word != "id":
        for chunk in word.split("*"):
            if not chunk.startswith("s") or not chunk[1:].isdigit():
                raise ParseError(f"expected simple reflection like 's1', got {chunk!r}", at)
            idx = int(chunk[1:])
            if not 1 <= idx <= datum.rank:
                raise ValidationError(
                    f"reflection index {idx} out of range 1..{datum.rank}"
                )
            letters.append(idx)
            at += len(chunk) + 1
    if len(parts) == 2:
        at, trans = parts[1]
        if not (trans.startswith("t[") and trans.endswith("]")):
            raise ParseError("translation must look like t[-1,0]", at)
        body = trans[2:-1]
        try:
            coords = tuple(int(c.strip()) for c in body.split(","))
        except ValueError:
            raise ParseError(f"bad translation coordinates {body!r}", at + 2)
        if len(coords) != datum.rank:
            raise ValidationError(
                f"translation has {len(coords)} coordinates, rank is {datum.rank}"
            )
    return AffineWeylElement(datum, weyl_group(datum)._fold(letters), coords)


def format_element(x: AffineWeylElement) -> str:
    """Canonical string: reduced word of the finite part, then the coroot
    translation; reparses to an equal element."""
    word = weyl_group(x.datum).word[x.index]
    word_str = "*".join(f"s{i}" for i in word) if word else "id"
    if any(x.trans):
        trans_str = "t[" + ",".join(str(c) for c in x.trans) + "]"
        return trans_str if not word else f"{word_str} {trans_str}"
    return word_str
