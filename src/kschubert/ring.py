"""Exact arithmetic in the group algebra of the weight lattice and in its
localization at the factors (1 - e^beta), beta a positive root.

A :class:`GroupAlgebraElement` is a finite map weight -> integer; Python
integers give arbitrary precision for free.  A :class:`RationalFunction` is
a group-algebra numerator together with a multiset of positive roots, each
entry standing for one denominator factor (1 - e^beta).  Every denominator
that arises in this package has that shape, which keeps reduction to exact
division along a single lattice direction and avoids multivariate gcd.

Values are read-only: a group-algebra element's terms are a read-only view,
and operations always build new objects, so the memoized rows of the other
layers can hand the same values to every caller.
"""

from __future__ import annotations

import operator
from types import MappingProxyType

from kschubert.rootsys import CartanDatum, Matrix, Weight, matvec, weight_in_root_coords


class NonPolynomialError(ArithmeticError):
    """A rational function expected to lie in the group algebra does not."""


class GroupAlgebraElement:
    """Element of Z[weight lattice]; ``terms`` is a read-only map weight ->
    coefficient, copied from the mapping given to the constructor.

    Zero coefficients are never stored, so equality is plain map equality.

    >>> a = GroupAlgebraElement.monomial((2,))
    >>> b = GroupAlgebraElement.monomial((-2,))
    >>> a * b == GroupAlgebraElement.one(1)
    True
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        self.terms = MappingProxyType({w: c for w, c in terms.items() if c} if terms else {})

    @classmethod
    def zero(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, weight: Weight, coeff: int = 1) -> "GroupAlgebraElement":
        return cls(len(weight), {tuple(weight): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = GroupAlgebraElement(self.rank, {(0,) * self.rank: other})
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __add__(self, other) -> "GroupAlgebraElement":
        out = dict(self.terms)
        for w, c in self._coerce(other).terms.items():
            out[w] = out.get(w, 0) + c
        return GroupAlgebraElement(self.rank, out)

    def __neg__(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.rank, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "GroupAlgebraElement":
        if isinstance(other, int):
            return GroupAlgebraElement(
                self.rank, {w: other * c for w, c in self.terms.items()}
            )
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        add = operator.add
        out: dict[Weight, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(map(add, w1, w2))
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
        return GroupAlgebraElement(self.rank, out)

    def _coerce(self, other) -> "GroupAlgebraElement":
        if isinstance(other, int):
            return GroupAlgebraElement(self.rank, {(0,) * self.rank: other})
        if isinstance(other, GroupAlgebraElement):
            if other.rank != self.rank:
                raise ValueError("rank mismatch")
            return other
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def augmentation(self) -> int:
        """Specialization e^lambda -> 1, i.e. the sum of coefficients."""
        return sum(self.terms.values())

    def act(self, matrix: Matrix) -> "GroupAlgebraElement":
        """Apply an invertible lattice map to every exponent."""
        return GroupAlgebraElement(
            self.rank, {matvec(matrix, w): c for w, c in self.terms.items()}
        )

    def flip(self) -> "GroupAlgebraElement":
        """The automorphism e^lambda -> e^{-lambda}."""
        return GroupAlgebraElement(
            self.rank, {tuple(-x for x in w): c for w, c in self.terms.items()}
        )

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"GroupAlgebraElement({format_gae(self)})"


def divide_one_minus_exp(f: GroupAlgebraElement, beta: Weight):
    """Exact quotient f / (1 - e^beta), or None if it does not divide.

    Terms are grouped by coset of the lattice modulo Z*beta; on each coset
    the quotient is the univariate long division of sum c_k x^k by (1 - x),
    whose coefficients are the partial sums from below.  Divisibility means
    every coset sums to zero.
    """
    if not f:
        return f
    j = next(idx for idx, b in enumerate(beta) if b)
    groups: dict[Weight, list[tuple[int, int]]] = {}
    for w, c in f.terms.items():
        k = w[j] // beta[j]
        rep = tuple(a - k * b for a, b in zip(w, beta))
        groups.setdefault(rep, []).append((k, c))
    out: dict[Weight, int] = {}
    for rep, entries in groups.items():
        entries.sort()
        if sum(c for _, c in entries) != 0:
            return None
        running = 0
        for (k, c), (k_next, _) in zip(entries, entries[1:]):
            running += c
            if running:
                for kk in range(k, k_next):
                    out[tuple(a + kk * b for a, b in zip(rep, beta))] = running
    return GroupAlgebraElement(f.rank, out)


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

    def act(self, matrix: Matrix) -> "RationalFunction":
        """Image under a finite Weyl-group element given by its weight-lattice
        matrix.  Denominator roots map to roots; factors sent to negative
        roots are renormalized via (1 - e^{-beta}) = (-e^{-beta})(1 - e^beta),
        the unit being absorbed into the numerator."""
        num = self.num.act(matrix)
        den: dict[Weight, int] = {}
        for root, mult in self.den:
            image = matvec(matrix, root)
            if image in self.datum.positive_root_set:
                den[image] = den.get(image, 0) + mult
            else:
                pos = tuple(-x for x in image)
                den[pos] = den.get(pos, 0) + mult
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
