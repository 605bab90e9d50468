"""Structure constants of the Pontryagin product on the K-homology of the
affine Grassmannian, a linear-algebra cross check, a finite-type oracle for
the degree-zero quantum constants, and the conjecture comparison.

The paper's formula for Grassmannian x and y is

    c_{x,y}^z = sum over translations t1, t2 of
                b_{x,[t1]} * b_{y,[t2]} * e_{t1 t2, [z]},

where [t] denotes a coset sum over t W.  The engine does the y-side sum
once, inside the nilHecke ring, and computes

    c_{x,y}^z = sum over mu of b_{x,[mu]} * E_{mu,y}[z],

with E_{mu,y} the coset row of t_mu y_y (``nilhecke.translation_cosets(mu, y)``,
the y-expansion of t_mu y_{y w0}, its key v read as z = v w0).  Why:

* for finite i, s_i = e^{alpha_i} + (1 - e^{alpha_i}) y_i and
  y_i y_{w0} = y_{w0}, so s_i y_{w0} = y_{w0}, and a y_{w0} = kappa(a) y_{w0}
  for every a in the localization basis;
* hence l_y y_{w0} = y_y y_{w0} = y_{y w0} for l_y = kappa(y_y), and
  l_x l_y y_{w0} = sum_mu b_{x,[mu]} t_mu y_{y w0};
* c_{x,y}^z is the coefficient of y_{z w0} in l_x l_y y_{w0}: the formula
  above read through the w0 trick of ``translation_cosets``.

The sum is finite because the coset b-sums vanish outside the Bruhat lower
interval of x.  Only the b coset sums carry denominators, products of
(1 - e^beta), so the engine writes those of x over one common denominator
D_x once (``nilhecke.b_lift``), forms the whole sum in the group algebra,
and divides all output entries by D_x together, one coset grouping per
root of D_x (``ring.combine``).  Every constant must land in the group algebra; a
surviving denominator signals a bug.

The independent route expands the same product in the translation
localization coordinates, the convolution of the two b coset sums as one
``combine`` over D_x D_y, and solves the triangular system against the
coset-b rows of candidate Grassmannian elements instead of using the
e-matrix.  Both routes must agree, and they are tested against each other
and against the embedded SL2/SL3 reference tables.  The one triangular
solver, ``_triangular_solve``, takes the division as a callback: the
independent route multiplies by the inverse of b_{z,z}, and the classical
finite-type oracle solves on polynomials, dividing each pivot value exactly
by e_{w,w}, so a value that does not divide raises NonPolynomialError.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from functools import lru_cache, partial
from types import MappingProxyType

from kschubert.ring import GroupAlgebraElement, RationalFunction, _den_complement, combine, format_gae, format_rf
from kschubert.rootsys import CartanDatum, Frozen, build_root_system, root_lattice_weight
from kschubert.weyl import (
    AffineWeylElement,
    aff_multiply,
    coset_min,
    coset_translation,
    finite_elements,
    finite_part,
    format_element,
    identity,
    is_grassmannian,
    length,
    lower_interval,
    parse_element,
    reduced_word,
    reflection_roots,
    translation,
    weyl_group,
)
from kschubert.nilhecke import b_cosets, b_lift, k_class, l_class, t_row, translation_cosets


class SingularSystemError(ArithmeticError):
    """The triangular solve failed; this indicates an implementation bug."""


class MalformedDatumError(ValueError):
    """A quantum datum with a negative degree entry."""


def element_sort_key(x: AffineWeylElement):
    return (length(x), format_element(x))


class StructureConstantTable:
    """c_{x,y}^z for one pair (x, y); entries are group-algebra elements."""

    __slots__ = ("entries", "warnings")

    def __init__(self, entries: dict, warnings: list[str]):
        self.entries, self.warnings = entries, warnings

    def sorted_entries(self):
        return sorted(self.entries.items(), key=lambda t: element_sort_key(t[0]))


def _translation_convolution(x: AffineWeylElement, y: AffineWeylElement) -> dict:
    """P(sigma) = sum over t1 + t2 = sigma of b_{x,[t1]} b_{y,[t2]}.
    Translations act trivially at level zero, so the coefficients multiply
    as plain scalars: with both sides over their lcm denominators D_x
    and D_y (``nilhecke.b_lift``), P is one ``combine`` over D_x D_y of x's
    numerators times the rows mu -> {mu + nu: y's numerator at nu}."""
    datum = x.datum
    den_x, nums_x = b_lift(x, True)
    den_y, nums_y = b_lift(y, True)
    den = dict(den_x)
    for root, mult in den_y:
        den[root] = den.get(root, 0) + mult

    def shifted(mu):
        return {tuple(a + b for a, b in zip(mu, nu)): g for nu, g in nums_y.items()}

    return combine(datum, (tuple(sorted(den.items())), nums_x), shifted)


def _support_warnings(x, y, entries) -> list[str]:
    nu = tuple(a + b for a, b in zip(x.trans, y.trans))
    warnings = []
    for z in entries:
        eta = tuple(a - b for a, b in zip(z.trans, nu))
        if any(c < 0 for c in eta):
            warnings.append(
                f"support element {format_element(z)} has translation offset "
                f"{eta} with a negative coordinate"
            )
    return warnings


def pontryagin_constants(x: AffineWeylElement, y: AffineWeylElement) -> StructureConstantTable:
    """Structure constants of O_x . O_y as sum_mu b_{x,[mu]} E_{mu,y}[z]
    (module docstring), over one common denominator (``ring.combine``): the
    b coset sums of x, lifted once to numerators over their lcm denominator
    D_x (``nilhecke.b_lift``), are multiplied into the coset rows of
    t_mu y_y (``nilhecke.translation_cosets``, read by mu) in one flat
    accumulator, and all entries are divided by D_x together, one coset
    grouping per root.  The route is deliberately asymmetric in
    x and y, so commutativity stays a real check."""
    if not (is_grassmannian(x) and is_grassmannian(y)):
        raise ValueError("both factors must be affine Grassmannian elements")
    datum = x.datum
    sums = combine(datum, b_lift(x, True), lambda mu: translation_cosets(mu, y))
    # The one exactness gate: each entry over D_x must divide out fully.
    entries = {z: c.to_polynomial() for z, c in sums.items()}
    return StructureConstantTable(entries, _support_warnings(x, y, entries))


def _inverse_leading_b(z: AffineWeylElement) -> GroupAlgebraElement:
    """Inverse of b_{z,z} (= the coset sum b_{z,[sigma_z]} for Grassmannian z,
    whose coset meets the lower interval only in z itself).  Along a reduced
    word, b_{z,z} is the product of the factors (-e^{-gamma_k})/(1-e^{-gamma_k})
    at the reflection roots, and each factor inverts to (1 - e^{gamma_k}),
    once per occurrence of gamma_k (``ring._den_complement``)."""
    return _den_complement(z.datum, Counter(reflection_roots(z.datum, reduced_word(z))), {})


def _triangular_solve(residual: dict, order, pivot, divide, row) -> dict:
    """Peel a triangular system one unknown at a time, in ``order``: the
    coefficient of z is ``divide(z, value)`` of the residual value at
    ``pivot(z)``, and that coefficient times ``row(z)`` is subtracted from
    ``residual`` in place.  Returns the coefficients found; the caller
    checks that nothing is left in ``residual``."""
    solved = {}
    for z in order:
        value = residual.get(pivot(z))
        if not value:
            continue
        coeff = solved[z] = divide(z, value)
        for key, entry in row(z).items():
            dec = coeff * entry
            residual[key] = residual[key] - dec if key in residual else -dec
    return solved


def pontryagin_constants_linear(x: AffineWeylElement, y: AffineWeylElement) -> StructureConstantTable:
    """Independent route: write the product in the translation localization
    coordinates and solve c against the coset-b rows of Grassmannian
    candidates, triangularly with respect to Bruhat order."""
    if not (is_grassmannian(x) and is_grassmannian(y)):
        raise ValueError("both factors must be affine Grassmannian elements")
    datum = x.datum
    target = _translation_convolution(x, y)

    candidates: set[AffineWeylElement] = set()
    for sigma in target:
        top = coset_min(translation(datum, sigma))
        candidates.update(v for v in lower_interval(top) if is_grassmannian(v))

    residual = dict(target)
    solved = _triangular_solve(
        residual,
        sorted(candidates, key=element_sort_key, reverse=True),
        coset_translation,
        lambda z, value: value * _inverse_leading_b(z),
        b_cosets,
    )
    for key, leftover in residual.items():
        if leftover:
            raise SingularSystemError(
                f"nonzero residual {leftover!r} at translation {key} while "
                f"expanding O_{format_element(x)} . O_{format_element(y)}"
            )
    entries = {z: c.to_polynomial() for z, c in solved.items() if c}
    return StructureConstantTable(entries, _support_warnings(x, y, entries))


# Degree-zero oracle on the finite flag variety --------------------------------
#
# The fixed-point localization of the finite Schubert basis is determined,
# inside this package's own formalism, by pairing duality: the localization
# row of the w-th opposite class is L[w][v] = sum over u >= w of e_{v,u},
# taken in the finite nilHecke ring.  Classes multiply pointwise in these
# coordinates and the basis expansion is triangular with diagonal
# e_{v,v} = prod (1 - e^{gamma}) over the inversion roots of v, which every
# pivot value divides exactly in the group algebra.  The embedded
# quantum fixtures use the dual character identification e^lambda <-> inverse
# character, so the result is flipped through e^lambda -> e^{-lambda} at the
# end to land in the same convention as the affine tables.


@lru_cache(maxsize=None)
def _finite_localization_row(w: AffineWeylElement) -> MappingProxyType:
    """L[w][v] over finite v: the T_w coefficient of v, read from its T-row."""
    rows = ((v, t_row(v)) for v in finite_elements(w.datum))
    return MappingProxyType({v: row[w] for v, row in rows if w in row})


def classical_k_constants(u: AffineWeylElement, v: AffineWeylElement) -> dict:
    """Structure constants N_{u,v}^{w,0} of the torus-equivariant K-theory of
    the finite flag variety in the opposite Schubert basis, by pointwise
    multiplication of localization rows and a triangular solve on
    polynomials: each pivot value divides exactly by e_{w,w}, and one that
    does not raises NonPolynomialError."""
    datum = u.datum
    if not (u.is_finite and v.is_finite):
        raise ValueError("classical constants take finite Weyl elements")
    elements = finite_elements(datum)
    row_u = _finite_localization_row(u)
    row_v = _finite_localization_row(v)
    residual = {
        x: row_u[x] * row_v[x] for x in elements if x in row_u and x in row_v
    }

    def divide(w, value):
        den = [(gamma, 1) for gamma in reflection_roots(datum, reduced_word(w))]
        return RationalFunction(datum, value, den).to_polynomial()

    solved = _triangular_solve(
        residual,
        sorted(elements, key=element_sort_key),
        lambda w: w,
        divide,
        _finite_localization_row,
    )
    for xx, leftover in residual.items():
        if leftover:
            raise SingularSystemError(
                f"nonzero localization residual at {format_element(xx)}"
            )
    return {w: c.flip() for w, c in solved.items()}


# Quantum data and the conjecture comparison -----------------------------------


class QuantumDatum(Frozen):
    """One known structure constant of the quantum K-theory of the finite
    flag variety: O^u * O^v ∋ N q^degree O^w.  Immutable."""

    __slots__ = ("u", "v", "w", "degree", "value")

    def __init__(self, u: AffineWeylElement, v: AffineWeylElement, w: AffineWeylElement, degree: tuple[int, ...],
                 value: GroupAlgebraElement):
        if any(d < 0 for d in degree):
            raise MalformedDatumError(f"negative degree entry in {degree}")
        self._fill(u, v, w, degree, value)


class ConjectureEntry:
    __slots__ = ("z", "c_value", "w", "eta", "n_value", "verdict")

    def __init__(self, z, c_value, w, eta, n_value, verdict):
        # verdict: "match" | "mismatch" | "no-data"
        self.z, self.c_value, self.w, self.eta, self.n_value, self.verdict = z, c_value, w, eta, n_value, verdict


class ConjectureReport:
    __slots__ = ("entries", "mismatches")

    def __init__(self, entries: list[ConjectureEntry]):
        self.entries = entries
        self.mismatches = sum(e.verdict == "mismatch" for e in entries)


def conjecture_check(
    x: AffineWeylElement, y: AffineWeylElement, quantum_data
) -> ConjectureReport:
    """Compare the affine constants c_{x,y}^z against quantum data: z = w t
    with t = (translation of x) + (translation of y) + eta, and a matching
    datum has finite parts (u, v, w) and q-degree eta in simple-coroot
    coordinates.  Only the data whose (u, v) are the pair's finite parts
    are read; data of other pairs are skipped unread, so a conflict among
    them goes unnoticed here.  The pair's own data that share (w, eta) must
    agree: equal ones are compared once, conflicting ones raise
    MalformedDatumError."""
    datum = x.datum
    table = pontryagin_constants(x, y)
    nu = tuple(a + b for a, b in zip(x.trans, y.trans))
    u_fin, v_fin = finite_part(x), finite_part(y)

    index: dict[tuple, QuantumDatum] = {}
    for d in quantum_data:
        # The finite indices first: integer tests that reject almost every
        # datum of another pair before the element comparison.
        if d.u.index != x.index or d.v.index != y.index or d.u != u_fin or d.v != v_fin:
            continue
        seen = index.setdefault((d.w, d.degree), d)
        if seen is not d and seen.value != d.value:
            raise MalformedDatumError(
                f"conflicting data for {format_element(d.u)}, {format_element(d.v)}, "
                f"{format_element(d.w)} at degree {d.degree}: {seen.value!r} and {d.value!r}"
            )

    entries = []
    for z, c in table.sorted_entries():
        w_fin = finite_part(z)
        eta = tuple(a - b for a, b in zip(z.trans, nu))
        datum_hit = index.pop((w_fin, eta), None)
        if datum_hit is None:
            entries.append(ConjectureEntry(z, c, w_fin, eta, None, "no-data"))
        else:
            verdict = "match" if datum_hit.value == c else "mismatch"
            entries.append(ConjectureEntry(z, c, w_fin, eta, datum_hit.value, verdict))
    # Data-side completeness: each datum that no table entry took asserts
    # c = 0 at its z.
    for (_, eta), d in index.items():
        z = aff_multiply(finite_part(d.w), translation(datum, tuple(a + b for a, b in zip(nu, eta))))
        verdict = "match" if not d.value else "mismatch"
        entries.append(ConjectureEntry(z, GroupAlgebraElement(datum.rank), d.w, eta, d.value, verdict))
    return ConjectureReport(entries)


# Embedded reference tables -----------------------------------------------------
#
# The JSON fixtures spell every coefficient as a product of factored atoms
# ({"e": k} is e^{k.alpha}, {"one_minus_e": k} is 1 - e^{k.alpha}, exponents
# in simple-root coordinates) so each entry can be audited factor by factor.


def _eval_atom(datum: CartanDatum, atom: dict) -> GroupAlgebraElement:
    if "int" in atom:
        return GroupAlgebraElement.one(datum.rank) * atom["int"]
    if "e" in atom:
        return GroupAlgebraElement.monomial(root_lattice_weight(datum, atom["e"]))
    if "one_minus_e" in atom:
        mono = GroupAlgebraElement.monomial(root_lattice_weight(datum, atom["one_minus_e"]))
        return GroupAlgebraElement.one(datum.rank) - mono
    raise ValueError(f"unknown coefficient atom {atom!r}")


def eval_coefficient(datum: CartanDatum, atoms: list) -> GroupAlgebraElement:
    out = GroupAlgebraElement.one(datum.rank)
    for atom in atoms:
        out = out * _eval_atom(datum, atom)
    return out


def _load_fixture(name: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as fh:
        return json.load(fh)


def _swap(coords, swaps) -> tuple:
    """Coordinates moved by the diagram automorphism i -> swaps[i - 1]: a
    weight, a root and a coroot alike, since sigma permutes the simple roots
    and fixes the Cartan matrix."""
    out = [0] * len(coords)
    for c, target in zip(coords, swaps):
        out[target - 1] = c
    return tuple(out)


def _swap_element(x: AffineWeylElement, swaps) -> AffineWeylElement:
    """sigma(w t_lam) = sigma(w) t_sigma(lam): the letters of w's word
    renamed and folded back as ``parse_element`` does."""
    group = weyl_group(x.datum)
    letters = (swaps[i - 1] for i in group.word[x.index])
    return AffineWeylElement(x.datum, group._fold(letters), _swap(x.trans, swaps))


def _swap_value(g: GroupAlgebraElement, swaps) -> GroupAlgebraElement:
    """sigma on a ring value: each weight moved by ``_swap``."""
    return GroupAlgebraElement(g.rank, {_swap(w, swaps): c for w, c in g.sorted_terms()})


class VerificationRecord:
    __slots__ = ("identity", "ok", "detail")

    def __init__(self, identity: str, ok: bool, detail: str):
        self.identity, self.ok, self.detail = identity, ok, detail


class VerificationReport:
    __slots__ = ("records",)

    def __init__(self, records: list[VerificationRecord]):
        self.records = records

    @property
    def failures(self) -> list[VerificationRecord]:
        return [r for r in self.records if not r.ok]


def _check(name, expected, computed, fmt, records) -> None:
    """Record whether two tables agree, naming each entry where they differ
    with its values written by ``fmt``."""
    lines = []
    if computed != expected:
        for z in sorted(set(expected) | set(computed), key=element_sort_key):
            e, c = expected.get(z), computed.get(z)
            if e != c:
                lines.append(
                    f"{format_element(z)}: expected {fmt(e) if e is not None else '(absent)'}, "
                    f"got {fmt(c) if c is not None else '(absent)'}"
                )
    records.append(VerificationRecord(name, not lines, "; ".join(lines)))


def verify_embedded_tables(suite: str = "all") -> VerificationReport:
    """Recompute every identity of the embedded SL2/SL3 datasets and report
    pass/fail per identity."""
    if suite not in ("sl2", "sl3", "all"):
        raise ValueError("suite must be sl2, sl3 or all")
    records: list[VerificationRecord] = []
    if suite in ("sl2", "all"):
        _verify_suite(_load_fixture("sl2_tables.json"), records)
    if suite in ("sl3", "all"):
        _verify_suite(_load_fixture("sl3_tables.json"), records)
    return VerificationReport(records)


def _verify_suite(data: dict, records: list) -> None:
    datum = build_root_system(data["type"])
    swaps = data.get("dynkin_swap")
    for item in data["identities"]:
        kind, name = item["kind"], item["name"]
        if kind not in ("product", "kclass", "lclass"):
            records.append(VerificationRecord(name, False, f"unknown kind {kind!r}"))
            continue
        expected = {
            parse_element(el, datum): eval_coefficient(datum, atoms)
            for el, atoms in item["entries"].items()
        }
        if kind == "product":
            x, y = parse_element(item["x"], datum), parse_element(item["y"], datum)
            fmt = partial(format_gae, datum=datum, root_coords=True)
            _check(name, expected, pontryagin_constants(x, y).entries, fmt, records)
            if swaps:
                swapped = {_swap_element(z, swaps): _swap_value(c, swaps) for z, c in expected.items()}
                x, y = _swap_element(x, swaps), _swap_element(y, swaps)
                _check(name + "-swapped", swapped, pontryagin_constants(x, y).entries, fmt, records)
        else:
            expected = {z: RationalFunction.from_gae(datum, g) for z, g in expected.items()}
            computed = (k_class if kind == "kclass" else l_class)(parse_element(item["w"], datum))
            _check(name, expected, computed, partial(format_rf, root_coords=True), records)


def load_quantum_data() -> list[QuantumDatum]:
    """Quantum fixtures: the known quantum products stored in the same
    factored-atom coefficient format."""
    data = _load_fixture("quantum_sl2.json")
    datum = build_root_system(data["type"])
    out = []
    for item in data["data"]:
        out.append(
            QuantumDatum(
                u=parse_element(item["u"], datum),
                v=parse_element(item["v"], datum),
                w=parse_element(item["w"], datum),
                degree=tuple(item["degree"]),
                value=eval_coefficient(datum, item["value"]),
            )
        )
    return out


def classical_quantum_data(datum: CartanDatum, pairs) -> list[QuantumDatum]:
    """Degree-zero quantum data generated by the classical oracle for the
    requested (u, v) pairs of finite Weyl elements."""
    out = []
    zero = (0,) * datum.rank
    for u, v in pairs:
        for w, value in classical_k_constants(u, v).items():
            out.append(QuantumDatum(u=u, v=v, w=w, degree=zero, value=value))
    return out
