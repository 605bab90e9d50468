"""Exact arithmetic in the group algebra of the weight lattice and in its
localization at the factors (1 - e^beta), beta a positive root.

A :class:`GroupAlgebraElement` is a finite map weight -> integer; Python
integers give arbitrary precision for free.  Each weight w of rank r is
stored as one integer key k = sum_j w_j B^j, B = 2^32, with signed digits
|w_j| <= COORD_LIMIT = 2^31 - 1 (``pack``/``unpack``).  Packing is linear, so
the weight of a product term is k1 + k2 and e^lambda -> e^{-lambda} is
k -> -k; ``sorted_terms()`` is the view by weight tuples that printing and
JSON read.  A coordinate outside the range raises ValueError, never wraps
into the next digit.

A :class:`RationalFunction` is a group-algebra numerator together with a
multiset of positive roots, each entry standing for one denominator factor
(1 - e^beta).  Every denominator that arises in this package has that shape,
which keeps reduction to exact division along a single lattice direction and
avoids multivariate gcd.

Values are read-only: a group-algebra element's terms are a read-only view,
and operations always build new objects, so the memoized rows of the other
layers can hand the same values to every caller.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from kschubert.rootsys import CartanDatum, Weight, weight_in_root_coords


class NonPolynomialError(ArithmeticError):
    """A rational function expected to lie in the group algebra does not."""


DIGIT_BITS = 32
_MASK = (1 << DIGIT_BITS) - 1
_HALF = 1 << (DIGIT_BITS - 1)
COORD_LIMIT = _HALF - 1


def pack(weight: Weight) -> int:
    """The key sum_j w_j B^j of a weight; raises ValueError for a coordinate
    outside [-COORD_LIMIT, COORD_LIMIT]."""
    key = 0
    for c in reversed(weight):
        if not -COORD_LIMIT <= c <= COORD_LIMIT:
            raise ValueError(f"weight coordinate {c} is outside the packing range ±{COORD_LIMIT}")
        key = (key << DIGIT_BITS) + c
    return key


def _offset(rank: int) -> int:
    """sum over j < rank of B^j / 2: added to a key, it makes every digit
    nonnegative, so digits read off with a shift and a mask."""
    return _HALF * (((1 << (DIGIT_BITS * rank)) - 1) // _MASK)


def unpack(key: int, rank: int) -> Weight:
    """The weight whose key is ``key``; the inverse of ``pack``."""
    u = key + _offset(rank)
    return tuple(((u >> s) & _MASK) - _HALF for s in range(0, DIGIT_BITS * rank, DIGIT_BITS))


class WeylAction(NamedTuple):
    """A finite Weyl group element prepared to act on ring values, tabulated
    once per element by ``weyl.WeylGroup``: ``columns`` are the packed images
    of the fundamental weights (the columns of its weight-lattice matrix),
    ``norm`` is that matrix's row-sum norm, and ``roots`` maps each positive
    root beta to (gamma, flipped), where w(beta) = -gamma if ``flipped`` and
    gamma otherwise, gamma positive."""

    columns: tuple[int, ...]
    norm: int
    roots: Mapping[Weight, tuple[Weight, bool]]


def _in_range(bound: int) -> int:
    if bound > COORD_LIMIT:
        raise ValueError(
            f"weight coordinates could reach {bound}, outside the packing range ±{COORD_LIMIT}"
        )
    return bound


def _exact_bound(g: "GroupAlgebraElement") -> int:
    """The largest |coordinate| among the weights of g, read off its keys."""
    return max((max(map(abs, unpack(k, g.rank))) for k in g.terms), default=0)


class GroupAlgebraElement:
    """Element of Z[weight lattice]; ``terms`` is a read-only map from packed
    weight keys (see ``pack``) to coefficients, and ``sorted_terms()`` is the
    same element as sorted (weight tuple, coefficient) pairs.  The
    constructor takes a map weight tuple -> coefficient, each weight of
    length ``rank``.

    Zero coefficients are never stored, so equality is plain map equality.

    ``bound`` is an upper bound on |coordinate| over the weights: exact for
    constructed elements, the sum of the factors' bounds for a product, the
    bound times the action's row-sum norm under ``act``, and kept by the
    exact division.  An operation whose bound passes COORD_LIMIT recomputes
    it from its operands' actual coordinates and raises ValueError if it
    still does not fit, so a key never wraps into a neighbouring digit.

    >>> a = GroupAlgebraElement.monomial((2,))
    >>> b = GroupAlgebraElement.monomial((-2,))
    >>> a * b == GroupAlgebraElement.one(1)
    True
    """

    __slots__ = ("rank", "terms", "bound")

    def __init__(self, rank: int, terms=None):
        packed: dict[int, int] = {}
        bound = 0
        for w, c in terms.items() if terms else ():
            if len(w) != rank:
                raise ValueError(f"weight {tuple(w)} does not have rank {rank}")
            if c:
                packed[pack(w)] = c
                bound = max(bound, max(map(abs, w), default=0))
        self.rank = rank
        self.terms = MappingProxyType(packed)
        self.bound = bound

    @classmethod
    def from_packed(cls, rank: int, terms: dict, bound: int) -> "GroupAlgebraElement":
        """Wrap a dict packed key -> nonzero coefficient, without copying it;
        ``bound`` must bound |coordinate| over its weights."""
        g = cls.__new__(cls)
        g.rank = rank
        g.terms = MappingProxyType(terms)
        g.bound = bound
        return g

    @classmethod
    def zero(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "GroupAlgebraElement":
        return cls.from_packed(rank, {0: 1}, 0)

    @classmethod
    def monomial(cls, weight: Weight, coeff: int = 1) -> "GroupAlgebraElement":
        return cls(len(weight), {tuple(weight): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __add__(self, other) -> "GroupAlgebraElement":
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return GroupAlgebraElement.from_packed(self.rank, out, max(self.bound, other.bound))

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement.from_packed(
            self.rank, {k: -c for k, c in self.terms.items()}, self.bound
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "GroupAlgebraElement":
        if isinstance(other, int):
            terms = {k: other * c for k, c in self.terms.items()} if other else {}
            return GroupAlgebraElement.from_packed(self.rank, terms, self.bound)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        out: dict[int, int] = {}
        return GroupAlgebraElement.from_packed(self.rank, out, mul_add(out, self, other))

    def _coerce(self, other) -> "GroupAlgebraElement":
        if isinstance(other, int):
            return GroupAlgebraElement.from_packed(self.rank, {0: other} if other else {}, 0)
        if isinstance(other, GroupAlgebraElement):
            if other.rank != self.rank:
                raise ValueError("rank mismatch")
            return other
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def augmentation(self) -> int:
        """Specialization e^lambda -> 1, i.e. the sum of coefficients."""
        return sum(self.terms.values())

    def act(self, action: WeylAction) -> "GroupAlgebraElement":
        """Apply a finite Weyl group element to every exponent.  By linearity
        a weight's image key is sum_j w_j columns[j], with the digits w_j
        read off the key."""
        columns, norm = action.columns, action.norm
        bound = self.bound * norm
        if bound > COORD_LIMIT:
            bound = _in_range(_exact_bound(self) * norm)
        digits = list(zip(range(0, DIGIT_BITS * self.rank, DIGIT_BITS), columns))
        offset, base = _offset(self.rank), _HALF * sum(columns)
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            u, image = k + offset, -base
            for shift, column in digits:
                image += ((u >> shift) & _MASK) * column
            out[image] = c
        return GroupAlgebraElement.from_packed(self.rank, out, bound)

    def flip(self) -> "GroupAlgebraElement":
        """The automorphism e^lambda -> e^{-lambda}."""
        return GroupAlgebraElement.from_packed(
            self.rank, {-k: c for k, c in self.terms.items()}, self.bound
        )

    def sorted_terms(self) -> list[tuple[Weight, int]]:
        """The terms as (weight tuple, coefficient) pairs, sorted by weight."""
        return sorted((unpack(k, self.rank), c) for k, c in self.terms.items())

    def __repr__(self):
        return f"GroupAlgebraElement({format_gae(self)})"


def mul_add(acc: dict, a: GroupAlgebraElement, b: GroupAlgebraElement, bound: int = 0) -> int:
    """acc += a*b in place: ``acc`` is a plain dict packed key -> nonzero
    coefficient, and stays free of zero coefficients.  Returns the larger of
    ``bound`` and the product's coordinate bound, the bound to wrap ``acc``
    with (``GroupAlgebraElement.from_packed``) once it is complete."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    product_bound = a.bound + b.bound
    if product_bound > COORD_LIMIT:
        product_bound = _in_range(_exact_bound(a) + _exact_bound(b))
    get = acc.get
    inner = tuple(b.terms.items())
    for k1, c1 in a.terms.items():
        for k2, c2 in inner:
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s:
                acc[k] = s
            else:
                del acc[k]
    return max(bound, product_bound)


def divide_one_minus_exp(f: GroupAlgebraElement, beta: Weight):
    """Exact quotient f / (1 - e^beta), or None if it does not divide.

    Terms are grouped by coset of the lattice modulo Z*beta; on each coset
    the quotient is the univariate long division of sum c_k x^k by (1 - x),
    whose coefficients are the partial sums from below.  Divisibility means
    every coset sums to zero.  On packed keys a coset representative is
    k - q pack(beta), q read off the first nonzero coordinate of beta.
    """
    if len(beta) != f.rank:
        raise ValueError("rank mismatch")
    if not f:
        return f
    # Coset representatives stay inside (1 + max|beta_i|) * bound.
    reach = 1 + max(map(abs, beta))
    if f.bound * reach > COORD_LIMIT:
        _in_range(_exact_bound(f) * reach)
    j = next(idx for idx, b in enumerate(beta) if b)
    step, shift, offset = pack(beta), DIGIT_BITS * j, _offset(f.rank)
    groups: dict[int, list[tuple[int, int]]] = {}
    for key, c in f.terms.items():
        q = ((((key + offset) >> shift) & _MASK) - _HALF) // beta[j]
        groups.setdefault(key - q * step, []).append((q, c))
    out: dict[int, int] = {}
    for rep, entries in groups.items():
        entries.sort()
        if sum(c for _, c in entries) != 0:
            return None
        running = 0
        for (q, c), (q_next, _) in zip(entries, entries[1:]):
            running += c
            if running:
                for qq in range(q, q_next):
                    out[rep + qq * step] = running
    return GroupAlgebraElement.from_packed(f.rank, out, f.bound)


class RationalFunction:
    """Element of the localization Q(T), restricted to denominators that are
    products of (1 - e^beta) over positive roots of the ambient datum.

    ``den`` is a sorted tuple of (root, multiplicity) pairs.  Construction
    reduces to canonical form: no denominator factor divides the numerator,
    and zero always carries an empty denominator.  With this restriction the
    canonical form is unique, so equality is structural.
    """

    __slots__ = ("datum", "num", "den")

    def __init__(self, datum: CartanDatum, num: GroupAlgebraElement, den=(), reduce: bool = True):
        self.datum = datum
        den_map: dict[Weight, int] = {}
        for root, mult in dict(den).items() if isinstance(den, dict) else den:
            if mult < 0:
                raise ValueError("negative denominator multiplicity")
            if mult:
                if root not in datum.positive_root_set:
                    raise ValueError(f"{root} is not a positive root of {datum.label}")
                den_map[root] = den_map.get(root, 0) + mult
        self.num = num
        self.den = tuple(sorted(den_map.items()))
        if reduce:
            self._reduce()

    def _reduce(self) -> None:
        if not self.num:
            self.den = ()
            return
        if not self.den:
            return
        num = self.num
        new_den = []
        for root, mult in self.den:
            while mult > 0:
                q = divide_one_minus_exp(num, root)
                if q is None:
                    break
                num = q
                mult -= 1
            if mult:
                new_den.append((root, mult))
        self.num = num
        self.den = tuple(new_den)

    @classmethod
    def zero(cls, datum: CartanDatum) -> "RationalFunction":
        return cls(datum, GroupAlgebraElement.zero(datum.rank), (), reduce=False)

    @classmethod
    def one(cls, datum: CartanDatum) -> "RationalFunction":
        return cls(datum, GroupAlgebraElement.one(datum.rank), (), reduce=False)

    @classmethod
    def from_gae(cls, datum: CartanDatum, g: GroupAlgebraElement) -> "RationalFunction":
        return cls(datum, g, (), reduce=False)

    @classmethod
    def inverse_one_minus_exp(cls, datum: CartanDatum, lam: Weight) -> "RationalFunction":
        """1 / (1 - e^lam) for lam a root of either sign, normalized so the
        stored denominator root is positive:
        1/(1 - e^{-beta}) = -e^beta / (1 - e^beta)."""
        if lam in datum.positive_root_set:
            return cls(datum, GroupAlgebraElement.one(datum.rank), ((lam, 1),), reduce=False)
        pos = tuple(-x for x in lam)
        if pos not in datum.positive_root_set:
            raise ValueError(f"{lam} is not a root of {datum.label}")
        return cls(datum, GroupAlgebraElement.monomial(pos, -1), ((pos, 1),), reduce=False)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, GroupAlgebraElement)):
            other = RationalFunction.from_gae(
                self.datum,
                other if isinstance(other, GroupAlgebraElement) else self.num._coerce(other),
            )
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.datum == other.datum
            and self.den == other.den
            and self.num == other.num
        )

    def _den_map(self) -> dict[Weight, int]:
        return dict(self.den)

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        lcm, (a, b) = common_denominator(self.datum, (self, other))
        return RationalFunction(self.datum, a + b, lcm)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(self.datum, -self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        den = self._den_map()
        for root, mult in other.den:
            den[root] = den.get(root, 0) + mult
        return RationalFunction(self.datum, self.num * other.num, den)

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.datum != self.datum:
                raise ValueError("mixed ambient root systems")
            return other
        if isinstance(other, (int, GroupAlgebraElement)):
            g = other if isinstance(other, GroupAlgebraElement) else None
            if g is None:
                g = GroupAlgebraElement(self.datum.rank, {(0,) * self.datum.rank: other})
            if g.rank != self.datum.rank:
                raise ValueError("rank mismatch")
            return RationalFunction.from_gae(self.datum, g)
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def to_polynomial(self) -> GroupAlgebraElement:
        """Numerator, provided the denominator has fully cancelled."""
        if self.den:
            raise NonPolynomialError(
                f"denominator {self.den} survives reduction; value is not in R(T)"
            )
        return self.num

    def act(self, action: WeylAction) -> "RationalFunction":
        """Image under a finite Weyl group element.  Denominator roots map to
        roots; factors sent to negative roots are renormalized via
        (1 - e^{-beta}) = (-e^{-beta})(1 - e^beta), the unit being absorbed
        into the numerator."""
        num = self.num.act(action)
        den: dict[Weight, int] = {}
        for root, mult in self.den:
            pos, flipped = action.roots[root]
            den[pos] = den.get(pos, 0) + mult
            if flipped:
                num = num * GroupAlgebraElement.monomial(tuple(mult * x for x in pos), (-1) ** mult)
        return RationalFunction(self.datum, num, den)

    def __repr__(self):
        return f"RationalFunction({format_rf(self)})"


def common_denominator(datum: CartanDatum, fs) -> tuple[dict[Weight, int], list[GroupAlgebraElement]]:
    """Lift rational functions to their lcm denominator: returns the lcm as a
    root -> multiplicity map and the numerators over it, in input order."""
    fs = list(fs)
    lcm: dict[Weight, int] = {}
    for f in fs:
        for root, mult in f.den:
            lcm[root] = max(lcm.get(root, 0), mult)
    return lcm, [f.num * _den_complement(datum, lcm, f._den_map()) for f in fs]


def _den_complement(datum, target: dict, have: dict) -> GroupAlgebraElement:
    out = GroupAlgebraElement.one(datum.rank)
    for root, mult in target.items():
        extra = mult - have.get(root, 0)
        if extra:
            factor = GroupAlgebraElement.one(datum.rank) - GroupAlgebraElement.monomial(root)
            for _ in range(extra):
                out = out * factor
    return out


# Printing ------------------------------------------------------------------

def _format_monomial(weight: Weight, datum: CartanDatum | None, root_coords: bool) -> str:
    if root_coords:
        if datum is None:
            raise ValueError("root-coordinate printing needs the CartanDatum")
        coords = weight_in_root_coords(datum, weight)
        letter = "a"
    else:
        coords = weight
        letter = "w"
    parts = []
    for idx, c in enumerate(coords, start=1):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        mag_str = "" if mag == 1 else (f"({mag})" if "/" in str(mag) else f"{mag}")
        parts.append(f"{sign}{mag_str}{letter}{idx}")
    if not parts:
        return "1"
    return "e^{" + "".join(parts) + "}"


def format_gae(g: GroupAlgebraElement, datum: CartanDatum | None = None, root_coords: bool = False) -> str:
    if not g:
        return "0"
    chunks = []
    for weight, coeff in g.sorted_terms():
        mono = _format_monomial(weight, datum, root_coords)
        if mono == "1":
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


def format_rf(f: RationalFunction, root_coords: bool = False) -> str:
    num = format_gae(f.num, f.datum, root_coords)
    if not f.den:
        return num
    dens = []
    for root, mult in f.den:
        factor = f"(1 - {_format_monomial(root, f.datum, root_coords)})"
        dens.append(factor if mult == 1 else f"{factor}^{mult}")
    return f"({num}) / " + "".join(dens)


# JSON encoding --------------------------------------------------------------

def gae_to_json(g: GroupAlgebraElement) -> list[dict]:
    return [
        {"weight": list(w), "coeff": str(c)} for w, c in g.sorted_terms()
    ]


def rf_to_json(f: RationalFunction) -> dict:
    return {
        "num": gae_to_json(f.num),
        "den": [{"root": list(root), "mult": mult} for root, mult in f.den],
    }
