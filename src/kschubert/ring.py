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

``combine`` is the one routine that sums rational multiples of polynomial
rows: over one common denominator D (``lift``), in one flat packed dict for
all entries, which it then divides by D with one coset grouping per root
of D.  Exact division has one coset loop (``_coset_pass``, which divides by
(1 - e^beta)^m in one grouping) and one per-slot division over a
denominator (``_divide_slots``, one pass per root): ``combine`` and the
reduction of a ``RationalFunction`` (a lone element) are one call each, and
``divide_jointly`` (a row over one denominator, divided jointly down to the
lcm of its reduced entries) runs the loop in joint mode.

Values are read-only: a group-algebra element's terms are a read-only view,
and operations always build new objects, so the memoized rows of the other
layers can hand the same values to every caller.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import accumulate
from types import MappingProxyType

from kschubert.rootsys import CartanDatum, Frozen, Weight, weight_in_root_coords


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


class WeylAction(Frozen):
    """A finite Weyl group element prepared to act on ring values, tabulated
    once per element by ``weyl.WeylGroup``: ``columns`` are the packed images
    of the fundamental weights (the columns of its weight-lattice matrix),
    ``norm`` is that matrix's row-sum norm, and ``roots`` maps each positive
    root beta to (gamma, flipped), where w(beta) = -gamma if ``flipped`` and
    gamma otherwise, gamma positive."""

    __slots__ = ("columns", "norm", "roots")

    def __init__(self, columns: tuple[int, ...], norm: int, roots: Mapping[Weight, tuple[Weight, bool]]):
        self._fill(columns, norm, roots)


def _in_range(bound: int) -> int:
    if bound > COORD_LIMIT:
        raise ValueError(
            f"weight coordinates could reach {bound}, outside the packing range ±{COORD_LIMIT}"
        )
    return bound


def _exact_bound(terms: Mapping, rank: int) -> int:
    """The largest |coordinate| among the weights of packed keys, slot bits
    (``combine``) ignored."""
    return max((max(map(abs, unpack(k, rank))) for k in terms), default=0)


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
    def one(cls, rank: int) -> "GroupAlgebraElement":
        return cls.from_packed(rank, {0: 1}, 0)

    @classmethod
    def monomial(cls, weight: Weight, coeff: int = 1) -> "GroupAlgebraElement":
        return cls(len(weight), {tuple(weight): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
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
            bound = _in_range(_exact_bound(self.terms, self.rank) * norm)
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
        product_bound = exact_product_bound(a, b)
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


def exact_product_bound(a: GroupAlgebraElement, b: GroupAlgebraElement) -> int:
    """The coordinate bound of a*b from the factors' actual coordinates, for
    when their ``bound``s add up past COORD_LIMIT; raises ValueError if the
    product still does not fit."""
    return _in_range(_exact_bound(a.terms, a.rank) + _exact_bound(b.terms, b.rank))


def _coset_pass(terms: Mapping, beta: Weight, rank: int, bound: int, mult: int, joint: bool = False):
    """Divide every entry of a flat accumulator by (1 - e^beta) up to
    ``mult`` times, in one grouping.

    ``terms`` maps (slot << DIGIT_BITS * rank) + weight key to a nonzero
    coefficient, one slot per entry (a lone element is slot 0), and
    ``bound`` bounds its coordinates.  Terms are grouped once by coset of
    the lattice modulo Z*beta; on each coset, laid out densely from its
    lowest power, a division is the univariate long division of
    sum c_k x^k by (1 - x), whose coefficients are the partial sums from
    below, and divisibility means the coset sums to zero.  A slot takes
    division d only if all its cosets allow it, so it divides k times, k the
    smallest number of divisions its cosets allow (at most ``mult``): the
    same as ``mult`` passes of one division each.  A coset representative
    is k - q pack(beta), q read off the first nonzero coordinate of beta;
    the slot rides above the weight digits, so cosets never mix entries.
    Returns the quotient terms and slot -> mult - k for the slots with
    k < mult.  With ``joint``, all entries count as slot 0: they divide
    together, and the first coset that does not divide stops the root.
    """
    if len(beta) != rank:
        raise ValueError("rank mismatch")
    # Coset representatives stay inside (1 + max|beta_i|) * bound.
    reach = 1 + max(map(abs, beta))
    if bound * reach > COORD_LIMIT:
        _in_range(_exact_bound(terms, rank) * reach)
    j = next(idx for idx, b in enumerate(beta) if b)
    bj, step, shift, offset = beta[j], pack(beta), DIGIT_BITS * j, _offset(rank)
    groups: dict[int, list[tuple[int, int]]] = {}
    for key, c in terms.items():
        q = ((((key + offset) >> shift) & _MASK) - _HALF) // bj
        rep = key - q * step
        group = groups.get(rep)
        if group is None:
            groups[rep] = [(q, c)]
        else:
            group.append((q, c))
    slot_bits = DIGIT_BITS * rank
    cosets = []  # [slot, rep, lowest power, dense coefficients]
    for rep, group in groups.items():
        group.sort()
        low = group[0][0]
        dense = [0] * (group[-1][0] - low + 1)
        for q, c in group:
            dense[q - low] = c
        cosets.append([0 if joint else (rep + offset) >> slot_bits, rep, low, dense])
    keeps: dict[int, int] = {}
    for done in range(mult):
        divided = []
        for coset in cosets:
            if coset[0] in keeps:
                continue
            sums = list(accumulate(coset[3]))
            if sums.pop():
                keeps[coset[0]] = mult - done
            else:
                divided.append((coset, sums))
        for coset, sums in divided:
            if coset[0] not in keeps:
                coset[3] = sums
        if not divided:
            break
    quotient: dict[int, int] = {}
    for _, rep, low, dense in cosets:
        for q, c in enumerate(dense, low):
            if c:
                quotient[rep + q * step] = c
    return quotient, keeps


def _divide_slots(terms: Mapping, rank: int, bound: int, den) -> tuple[dict, dict]:
    """Divide every entry of a flat accumulator by as many factors of
    ``den`` as divide it, with one ``_coset_pass`` grouping per root, in
    the order of ``den``; a ``RationalFunction`` reduces by this call on
    its numerator alone, as slot 0.  Returns the quotient terms and
    slot -> the (root, multiplicity) pairs that slot keeps."""
    keeps: dict[int, list[tuple[Weight, int]]] = {}
    for root, mult in den:
        terms, left = _coset_pass(terms, root, rank, bound, mult)
        for slot, m in left.items():
            keeps.setdefault(slot, []).append((root, m))
    return terms, keeps


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
        # e^lambda -> 1 sends (1 - e^beta) to 0, so no factor divides a
        # numerator of nonzero augmentation.
        if not self.den or self.num.augmentation():
            return
        num = self.num
        terms, keeps = _divide_slots(num.terms, num.rank, num.bound, self.den)
        self.num = GroupAlgebraElement.from_packed(num.rank, terms, num.bound)
        self.den = tuple(keeps.get(0, ()))

    @classmethod
    def one(cls, datum: CartanDatum) -> "RationalFunction":
        return cls(datum, GroupAlgebraElement.one(datum.rank), (), reduce=False)

    @classmethod
    def from_gae(cls, datum: CartanDatum, g: GroupAlgebraElement) -> "RationalFunction":
        return cls(datum, g, (), reduce=False)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.datum == other.datum
            and self.den == other.den
            and self.num == other.num
        )

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        den, nums = lift(self.datum, {0: self, 1: other})
        return RationalFunction(self.datum, nums[0] + nums[1], den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(self.datum, -self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        den = dict(self.den)
        for root, mult in other.den:
            den[root] = den.get(root, 0) + mult
        return RationalFunction(self.datum, self.num * other.num, den)

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.datum != self.datum:
                raise ValueError("mixed ambient root systems")
            return other
        if isinstance(other, GroupAlgebraElement):
            if other.rank != self.datum.rank:
                raise ValueError("rank mismatch")
            return RationalFunction.from_gae(self.datum, other)
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def to_polynomial(self) -> GroupAlgebraElement:
        """Numerator, provided the denominator has fully cancelled."""
        if self.den:
            raise NonPolynomialError(
                f"denominator {self.den} survives reduction; value is not in R(T)"
            )
        return self.num

    def __repr__(self):
        return f"RationalFunction({format_rf(self)})"


def lift(datum: CartanDatum, coeffs: Mapping) -> tuple[tuple, dict]:
    """Rational coefficients k -> f_k over their lcm denominator D: returns D
    as sorted (root, multiplicity) pairs and the numerators k -> f_k D."""
    lcm: dict[Weight, int] = {}
    for f in coeffs.values():
        for root, mult in f.den:
            lcm[root] = max(lcm.get(root, 0), mult)
    nums = {k: f.num * _den_complement(datum, lcm, dict(f.den)) for k, f in coeffs.items()}
    return tuple(sorted(lcm.items())), nums


def combine(datum: CartanDatum, lifted: tuple[tuple, Mapping], rows) -> dict:
    """sum over k of f_k * rows(k), for rational coefficients f_k given
    lifted to one denominator D (``lift``: D and k -> f_k D) and rows
    k -> {key: GroupAlgebraElement}, as key -> nonzero RationalFunction.

    All entries accumulate in one flat packed dict: the n-th key seen gets
    slot n, and its terms are keyed (n << DIGIT_BITS * rank) + weight key.
    The whole dict is then divided by D, one coset grouping per root
    (``_divide_slots``), so each entry equals its canonical
    ``RationalFunction`` reduction."""
    den, nums = lifted
    rank = datum.rank
    slot_bits = DIGIT_BITS * rank
    acc: dict[int, int] = {}
    get = acc.get
    slots: dict = {}
    bound = 0
    for k, p in nums.items():
        outer = tuple(p.terms.items())
        for key, g in rows(k).items():
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(slots)
            product_bound = p.bound + g.bound
            if product_bound > bound:
                if product_bound > COORD_LIMIT:
                    product_bound = exact_product_bound(p, g)
                bound = max(bound, product_bound)
            base = slot << slot_bits
            inner = tuple(g.terms.items())
            for k1, c1 in outer:
                k1 += base
                for k2, c2 in inner:
                    kk = k1 + k2
                    acc[kk] = get(kk, 0) + c1 * c2
    terms = {kk: c for kk, c in acc.items() if c}
    terms, keeps = _divide_slots(terms, rank, bound, den)
    split = _split(terms, rank, len(slots))
    return {
        key: RationalFunction(
            datum, GroupAlgebraElement.from_packed(rank, split[slot], bound), keeps.get(slot, ()), reduce=False
        )
        for key, slot in slots.items()
        if split[slot]
    }


def _split(terms: Mapping, rank: int, count: int) -> list[dict[int, int]]:
    """A flat accumulator of ``count`` slots as one packed dict per slot."""
    bits, offset, split = DIGIT_BITS * rank, _offset(rank), [{} for _ in range(count)]
    for kk, c in terms.items():
        u = kk + offset  # slot above the digits, weight key + offset below
        split[u >> bits][(u & ((1 << bits) - 1)) - offset] = c
    return split


def divide_jointly(datum: CartanDatum, den: Mapping, nums: Mapping) -> tuple[tuple, dict]:
    """A nonempty row N_k / D (nonzero N_k, D a root -> multiplicity map)
    lifted to its lcm as by ``lift``, unreduced: distinct roots' (1 - e^beta)
    are coprime, so all N_k divide at once by each root as often as every
    one allows (``_coset_pass`` in joint mode, first on the fewest-term N_k)."""
    rank, bits, out = datum.rank, DIGIT_BITS * datum.rank, []
    terms = {(slot << bits) + k: c for slot, g in enumerate(nums.values()) for k, c in g.terms.items()}
    bound, smallest = max(g.bound for g in nums.values()), min(nums.values(), key=lambda g: len(g.terms))
    for root, mult in sorted(den.items()):
        j = mult - _coset_pass(smallest.terms, root, rank, smallest.bound, mult, True)[1].get(0, 0)
        if j:
            terms, keep = _coset_pass(terms, root, rank, bound, j, True)
            j -= keep.get(0, 0)
        if j < mult:
            out.append((root, mult - j))
    parts = _split(terms, rank, len(nums))
    return tuple(out), {k: GroupAlgebraElement.from_packed(rank, p, bound) for k, p in zip(nums, parts)}


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
