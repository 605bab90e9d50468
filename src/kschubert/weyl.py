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

Finite parts are stored as their action matrix on the weight lattice; the
finite group is small (|W| <= 24 for the built-in types), so words, lengths,
inverses and the coroot-action matrices are tabulated once per datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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


class WeylGroup:
    """Tabulated finite Weyl group of a CartanDatum."""

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        rank = datum.rank
        gens_w = [_simple_weight_matrix(datum, i) for i in range(1, rank + 1)]
        gens_c = [_simple_coroot_matrix(datum, i) for i in range(1, rank + 1)]
        ident = identity_matrix(rank)
        word: dict[Matrix, ReducedWord] = {ident: ()}
        cmat: dict[Matrix, Matrix] = {ident: ident}
        queue = [ident]
        while queue:
            nxt = []
            for m in queue:
                for i in range(rank):
                    m2 = matmul(m, gens_w[i])
                    if m2 not in word:
                        word[m2] = word[m] + (i + 1,)
                        cmat[m2] = matmul(cmat[m], gens_c[i])
                        nxt.append(m2)
            queue = nxt
        self.word = word
        self.cmat = cmat
        self.length = {m: len(w) for m, w in word.items()}
        self.inverse = {}
        for m, w in word.items():
            inv = ident
            for letter in reversed(w):
                inv = matmul(inv, gens_w[letter - 1])
            self.inverse[m] = inv
        self.elements = sorted(word, key=lambda m: (self.length[m], word[m]))
        top = max(self.length.values())
        longest = [m for m, l in self.length.items() if l == top]
        assert len(longest) == 1
        self.longest = longest[0]
        self.gens_w = gens_w


@lru_cache(maxsize=None)
def weyl_group(datum: CartanDatum) -> WeylGroup:
    return WeylGroup(datum)


@dataclass(frozen=True)
class AffineWeylElement:
    """w t_lam: finite part as weight-lattice matrix, translation in Q^vee."""

    datum: CartanDatum = field(repr=False)
    wmat: Matrix
    trans: Coroot

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.datum.label, self.wmat, self.trans)))

    def __hash__(self):
        return self._hash  # type: ignore[attr-defined]

    @property
    def is_identity(self) -> bool:
        return self.wmat == identity_matrix(self.datum.rank) and not any(self.trans)

    @property
    def is_finite(self) -> bool:
        return not any(self.trans)

    def __repr__(self):
        return f"<{format_element(self)}>"


def identity(datum: CartanDatum) -> AffineWeylElement:
    return AffineWeylElement(datum, identity_matrix(datum.rank), (0,) * datum.rank)


def translation(datum: CartanDatum, coroot: Coroot) -> AffineWeylElement:
    if len(coroot) != datum.rank:
        raise ValueError("rank mismatch")
    return AffineWeylElement(datum, identity_matrix(datum.rank), tuple(coroot))


def finite_element(datum: CartanDatum, wmat: Matrix) -> AffineWeylElement:
    return AffineWeylElement(datum, wmat, (0,) * datum.rank)


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
            datum, _s_theta(datum), tuple(-c for c in datum.highest_coroot)
        )
    if 1 <= i <= datum.rank:
        return finite_element(datum, _simple_weight_matrix(datum, i))
    raise ValueError(f"affine index {i} out of range 0..{datum.rank}")


def aff_multiply(x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
    """(w t_lam)(v t_mu) = wv t_{v^{-1} lam + mu}."""
    if x.datum != y.datum:
        raise ValueError("mixed ambient root systems")
    group = weyl_group(x.datum)
    v_inv_c = group.cmat[group.inverse[y.wmat]]
    lam = matvec(v_inv_c, x.trans)
    return AffineWeylElement(
        x.datum,
        matmul(x.wmat, y.wmat),
        tuple(a + b for a, b in zip(lam, y.trans)),
    )


def aff_inverse(x: AffineWeylElement) -> AffineWeylElement:
    group = weyl_group(x.datum)
    w_lam = matvec(group.cmat[x.wmat], x.trans)
    return AffineWeylElement(
        x.datum, group.inverse[x.wmat], tuple(-c for c in w_lam)
    )


@lru_cache(maxsize=None)
def length(x: AffineWeylElement) -> int:
    """Iwahori-Matsumoto length of w t_lam via the closed formula over
    positive roots (validated against word enumeration in the tests)."""
    datum = x.datum
    total = 0
    for beta in datum.positive_roots:
        n = sum(l * b for l, b in zip(x.trans, beta))
        if matvec(x.wmat, beta) not in datum.positive_root_set:
            n += 1
        total += abs(n)
    return total


def left_descents(x: AffineWeylElement) -> list[int]:
    lx = length(x)
    return [
        i
        for i in range(x.datum.rank + 1)
        if length(aff_multiply(affine_simple(x.datum, i), x)) < lx
    ]


@lru_cache(maxsize=None)
def reduced_word(x: AffineWeylElement) -> ReducedWord:
    """Greedy left-descent peeling with smallest-index tie break; the result
    is deterministic and evaluating it reproduces x."""
    word: list[int] = []
    current = x
    while not current.is_identity:
        i = min(left_descents(current))
        word.append(i)
        current = aff_multiply(affine_simple(current.datum, i), current)
    return tuple(word)


def evaluate_word(datum: CartanDatum, letters) -> AffineWeylElement:
    out = identity(datum)
    for i in letters:
        out = aff_multiply(out, affine_simple(datum, i))
    return out


@lru_cache(maxsize=None)
def bruhat_leq(u: AffineWeylElement, v: AffineWeylElement) -> bool:
    """Bruhat order via the lifting property, recursing on left descents."""
    if u == v:
        return True
    if length(u) >= length(v):
        return False
    i = min(left_descents(v))
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
    prefix = identity_matrix(datum.rank)
    out = []
    for i in letters:
        out.append(matvec(prefix, level_zero_root(datum, i)))
        prefix = matmul(prefix, affine_simple(datum, i).wmat)
    return out


def demazure_extend(x: AffineWeylElement, i: int) -> AffineWeylElement:
    xs = aff_multiply(x, affine_simple(x.datum, i))
    return xs if length(xs) > length(x) else x


def demazure_product(datum: CartanDatum, letters) -> AffineWeylElement:
    """0-Hecke product: each generator either increases length or is absorbed."""
    out = identity(datum)
    for i in letters:
        out = demazure_extend(out, i)
    return out


def coset_translation(x: AffineWeylElement) -> Coroot:
    """Coordinate of the unique translation in the coset x W: for x = w t_lam
    the coset contains t_{w lam} and nothing else of translation type."""
    group = weyl_group(x.datum)
    return matvec(group.cmat[x.wmat], x.trans)


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


def validate_length_convention(datum: CartanDatum, max_length: int) -> None:
    """Cross-check the closed length formula against BFS word enumeration.
    Raises AssertionError on any disagreement."""
    for dist, layer in enumerate(_word_layers(datum, max_length)):
        for x in layer:
            assert length(x) == dist, f"length formula disagrees with BFS at {x!r}"


def weyl_act(x: AffineWeylElement, f):
    """Level-zero action of an affine element on a ring value: the finite
    part acts on exponents, the translation part acts trivially."""
    return f.act(x.wmat)


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
    group = weyl_group(x.datum)
    word = group.word[x.wmat]
    word_str = "*".join(f"s{i}" for i in word) if word else "id"
    if any(x.trans):
        trans_str = "t[" + ",".join(str(c) for c in x.trans) + "]"
        return trans_str if not word else f"{word_str} {trans_str}"
    return word_str
