"""Structure constants of the Pontryagin product on the K-homology of the
affine Grassmannian, a linear-algebra cross check, a finite-type oracle for
the degree-zero quantum constants, and the conjecture comparison.

The paper's formula for Grassmannian x and y is

    c_{x,y}^z = sum over translations t1, t2 of
                b_{x,[t1]} * b_{y,[t2]} * e_{t1 t2, [z]},

where [t] denotes a coset sum over t W.  The engine does the y-side sum
once, inside the nilHecke ring, and computes

    c_{x,y}^z = sum over mu of b_{x,[mu]} * E_{mu,y}[z],

with E_{mu,y} the coset row of t_mu y_y (``nilhecke.e_cosets(t_mu, y)``,
the y-expansion of t_mu y_{y w0}, its key v read as z = v w0).  Why:

* for finite i, s_i = e^{alpha_i} + (1 - e^{alpha_i}) y_i and
  y_i y_{w0} = y_{w0}, so s_i y_{w0} = y_{w0}, and a y_{w0} = kappa(a) y_{w0}
  for every a in the localization basis;
* hence l_y y_{w0} = y_y y_{w0} = y_{y w0} for l_y = kappa(y_y), and
  l_x l_y y_{w0} = sum_mu b_{x,[mu]} t_mu y_{y w0};
* c_{x,y}^z is the coefficient of y_{z w0} in l_x l_y y_{w0}: the formula
  above read through the same w0 trick that ``e_cosets`` uses.

The sum is finite because the coset b-sums vanish outside the Bruhat lower
interval of x.  Only the b coset sums carry denominators, products of
(1 - e^beta), so the engine writes those of x over one common denominator
D_x, forms the whole sum in the group algebra, and makes one exact division
per output entry.  Every constant must land in the group algebra; a
surviving denominator signals a bug.

The independent route expands the same product in the translation
localization coordinates and solves the triangular system against the
coset-b rows of candidate Grassmannian elements instead of using the
e-matrix.  Both routes must agree, and they are tested against each other
and against the embedded SL2/SL3 reference tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

from kschubert.ring import (
    GroupAlgebraElement,
    RationalFunction,
    common_denominator,
    format_gae,
    mul_add,
)
from kschubert.rootsys import (
    CartanDatum,
    Coroot,
    build_root_system,
    root_lattice_weight,
)
from kschubert.weyl import (
    AffineWeylElement,
    aff_multiply,
    bruhat_leq,
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
)
from kschubert.nilhecke import b_cosets, e_cosets, e_row


class SingularSystemError(ArithmeticError):
    """The triangular solve failed; this indicates an implementation bug."""


class MalformedDatumError(ValueError):
    """A quantum datum with a negative degree entry."""


def element_sort_key(x: AffineWeylElement):
    return (length(x), format_element(x))


@dataclass
class StructureConstantTable:
    """c_{x,y}^z for one pair (x, y); entries are group-algebra elements."""

    x: AffineWeylElement
    y: AffineWeylElement
    entries: dict[AffineWeylElement, GroupAlgebraElement]
    warnings: list[str] = field(default_factory=list)

    def sorted_entries(self):
        return sorted(self.entries.items(), key=lambda t: element_sort_key(t[0]))


def _translation_convolution(x: AffineWeylElement, y: AffineWeylElement) -> dict:
    """P(sigma) = sum over t1 + t2 = sigma of b_{x,[t1]} b_{y,[t2]}.
    Translations act trivially at level zero, so the coefficients multiply
    as plain scalars."""
    bx, by = b_cosets(x), b_cosets(y)
    out: dict[Coroot, RationalFunction] = {}
    for mu, bmu in bx.items():
        for nu, bnu in by.items():
            sigma = tuple(a + b for a, b in zip(mu, nu))
            val = bmu * bnu
            out[sigma] = out[sigma] + val if sigma in out else val
    return {sigma: v for sigma, v in out.items() if v}


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
    (module docstring), over one common denominator: the b coset sums of x
    become numerators over their lcm denominator D_x, each is multiplied
    into the coset row of t_mu y_y in the group algebra, and each entry is
    divided once by D_x.  The route is deliberately asymmetric in x and y,
    so commutativity stays a real check."""
    if not (is_grassmannian(x) and is_grassmannian(y)):
        raise ValueError("both factors must be affine Grassmannian elements")
    datum = x.datum
    bx = b_cosets(x)
    den, nums = common_denominator(datum, bx.values())
    # Accumulate in place into plain dicts of packed terms (ring.mul_add);
    # one bound covers every entry's coordinates.
    raw: dict[AffineWeylElement, dict] = {}
    bound = 0
    for mu, p in zip(bx, nums):
        for z, egae in e_cosets(translation(datum, mu), y).items():
            bound = mul_add(raw.setdefault(z, {}), p, egae, bound)
    # The one exactness gate: each entry over D_x must divide out fully.
    entries = {
        z: RationalFunction(
            datum, GroupAlgebraElement.from_packed(datum.rank, terms, bound), den
        ).to_polynomial()
        for z, terms in raw.items()
        if terms
    }
    return StructureConstantTable(x, y, entries, _support_warnings(x, y, entries))


def _inverse_leading_b(z: AffineWeylElement) -> GroupAlgebraElement:
    """Inverse of b_{z,z} (= the coset sum b_{z,[sigma_z]} for Grassmannian z,
    whose coset meets the lower interval only in z itself).  Along a reduced
    word, b_{z,z} is the product of the factors (-e^{-gamma_k})/(1-e^{-gamma_k})
    at the reflection roots, and each factor inverts to (1 - e^{gamma_k})."""
    out = GroupAlgebraElement.one(z.datum.rank)
    for gamma in reflection_roots(z.datum, reduced_word(z)):
        out = out * (GroupAlgebraElement.one(z.datum.rank) - GroupAlgebraElement.monomial(gamma))
    return out


def _triangular_solve(residual: dict, order, pivot, inverse_diag, row) -> dict:
    """Peel a triangular system one unknown at a time, in ``order``: the
    coefficient of z is the residual at ``pivot(z)`` times ``inverse_diag(z)``,
    and that coefficient times ``row(z)`` is subtracted from ``residual`` in
    place.  Returns the coefficients found; the caller checks that nothing is
    left in ``residual``."""
    solved = {}
    for z in order:
        value = residual.get(pivot(z))
        if not value:
            continue
        coeff = value * inverse_diag(z)
        solved[z] = coeff
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
        _inverse_leading_b,
        b_cosets,
    )
    for key, leftover in residual.items():
        if leftover:
            raise SingularSystemError(
                f"nonzero residual {leftover!r} at translation {key} while "
                f"expanding O_{format_element(x)} . O_{format_element(y)}"
            )
    entries = {z: c.to_polynomial() for z, c in solved.items() if c}
    return StructureConstantTable(x, y, entries, _support_warnings(x, y, entries))


# Degree-zero oracle on the finite flag variety --------------------------------
#
# The fixed-point localization of the finite Schubert basis is determined,
# inside this package's own formalism, by pairing duality: the localization
# row of the w-th opposite class is L[w][v] = sum over u >= w of e_{v,u},
# taken in the finite nilHecke ring.  Classes multiply pointwise in these
# coordinates and the basis expansion is triangular with invertible diagonal
# e_{v,v} = prod (1 - e^{gamma}) over the inversion roots of v.  The embedded
# quantum fixtures use the dual character identification e^lambda <-> inverse
# character, so the result is flipped through e^lambda -> e^{-lambda} at the
# end to land in the same convention as the affine tables.


@lru_cache(maxsize=None)
def _finite_localization_row(w: AffineWeylElement) -> MappingProxyType:
    datum = w.datum
    out: dict[AffineWeylElement, GroupAlgebraElement] = {}
    for v in finite_elements(datum):
        total = GroupAlgebraElement.zero(datum.rank)
        for u, e in e_row(v).items():
            if bruhat_leq(w, u):
                total = total + e
        if total:
            out[v] = total
    return MappingProxyType(out)


def _inverse_diag_e(v: AffineWeylElement) -> RationalFunction:
    """Inverse of e_{v,v} = prod (1 - e^{gamma_k}) over the reflection roots."""
    out = RationalFunction.one(v.datum)
    for gamma in reflection_roots(v.datum, reduced_word(v)):
        out = out * RationalFunction.inverse_one_minus_exp(v.datum, gamma)
    return out


def classical_k_constants(u: AffineWeylElement, v: AffineWeylElement) -> dict:
    """Structure constants N_{u,v}^{w,0} of the torus-equivariant K-theory of
    the finite flag variety in the opposite Schubert basis, by pointwise
    multiplication of localization rows and a triangular solve."""
    datum = u.datum
    if not (u.is_finite and v.is_finite):
        raise ValueError("classical constants take finite Weyl elements")
    elements = finite_elements(datum)
    row_u = _finite_localization_row(u)
    row_v = _finite_localization_row(v)
    product = {
        x: row_u[x] * row_v[x] for x in elements if x in row_u and x in row_v
    }
    residual: dict[AffineWeylElement, RationalFunction] = {
        x: RationalFunction.from_gae(datum, g) for x, g in product.items()
    }
    solved = _triangular_solve(
        residual,
        sorted(elements, key=element_sort_key),
        lambda w: w,
        _inverse_diag_e,
        _finite_localization_row,
    )
    for xx, leftover in residual.items():
        if leftover:
            raise SingularSystemError(
                f"nonzero localization residual at {format_element(xx)}"
            )
    return {w: c.to_polynomial().flip() for w, c in solved.items() if c}


# Quantum data and the conjecture comparison -----------------------------------


@dataclass(frozen=True)
class QuantumDatum:
    """One known structure constant of the quantum K-theory of the finite
    flag variety: O^u * O^v ∋ N q^degree O^w."""

    u: AffineWeylElement
    v: AffineWeylElement
    w: AffineWeylElement
    degree: tuple[int, ...]
    value: GroupAlgebraElement

    def __post_init__(self):
        if any(d < 0 for d in self.degree):
            raise MalformedDatumError(f"negative degree entry in {self.degree}")


@dataclass
class ConjectureEntry:
    z: AffineWeylElement
    c_value: GroupAlgebraElement
    w: AffineWeylElement
    eta: tuple[int, ...]
    n_value: GroupAlgebraElement | None
    verdict: str  # "match" | "mismatch" | "no-data"


@dataclass
class ConjectureReport:
    x: AffineWeylElement
    y: AffineWeylElement
    entries: list[ConjectureEntry]
    warnings: list[str] = field(default_factory=list)

    @property
    def mismatches(self) -> int:
        return sum(1 for e in self.entries if e.verdict == "mismatch")

    @property
    def matches(self) -> int:
        return sum(1 for e in self.entries if e.verdict == "match")


def conjecture_check(
    x: AffineWeylElement, y: AffineWeylElement, quantum_data
) -> ConjectureReport:
    """Compare the affine constants c_{x,y}^z against quantum data: z = w t
    with t = (translation of x) + (translation of y) + eta, and a matching
    datum has finite parts (u, v, w) and q-degree eta in simple-coroot
    coordinates."""
    datum = x.datum
    table = pontryagin_constants(x, y)
    nu = tuple(a + b for a, b in zip(x.trans, y.trans))
    u_fin, v_fin = finite_part(x), finite_part(y)

    index: dict[tuple, QuantumDatum] = {}
    for d in quantum_data:
        index[(d.u, d.v, d.w, d.degree)] = d

    entries = []
    seen_keys = set()
    for z, c in table.sorted_entries():
        w_fin = finite_part(z)
        eta = tuple(a - b for a, b in zip(z.trans, nu))
        if any(e < 0 for e in eta):
            entries.append(ConjectureEntry(z, c, w_fin, eta, None, "no-data"))
            continue
        key = (u_fin, v_fin, w_fin, eta)
        seen_keys.add(key)
        datum_hit = index.get(key)
        if datum_hit is None:
            entries.append(ConjectureEntry(z, c, w_fin, eta, None, "no-data"))
        else:
            verdict = "match" if datum_hit.value == c else "mismatch"
            entries.append(ConjectureEntry(z, c, w_fin, eta, datum_hit.value, verdict))
    # Data-side completeness: a datum for this pair whose z is absent from
    # the table asserts c = 0.
    for key, d in index.items():
        if key[:2] != (u_fin, v_fin) or key in seen_keys:
            continue
        eta = key[3]
        z = aff_multiply(
            finite_part(d.w),
            translation(datum, tuple(a + b for a, b in zip(nu, eta))),
        )
        zero = GroupAlgebraElement.zero(datum.rank)
        verdict = "match" if not d.value else "mismatch"
        entries.append(ConjectureEntry(z, zero, d.w, eta, d.value, verdict))
    return ConjectureReport(x, y, entries, list(table.warnings))


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
    with resources.files("kschubert.data").joinpath(name).open("r") as fh:
        return json.load(fh)


def _swap_element_string(text: str, perm: dict[int, int]) -> str:
    parts = text.split()
    out = []
    for part in parts:
        if part.startswith("t["):
            coords = [c.strip() for c in part[2:-1].split(",")]
            swapped = [""] * len(coords)
            for idx, c in enumerate(coords):
                swapped[perm[idx + 1] - 1] = c
            out.append("t[" + ",".join(swapped) + "]")
        elif part == "id":
            out.append(part)
        else:
            out.append("*".join(f"s{perm[int(g[1:])]}" for g in part.split("*")))
    return " ".join(out)


def _swap_atoms(atoms: list, perm: dict[int, int]) -> list:
    swapped = []
    for atom in atoms:
        new = dict(atom)
        for key in ("e", "one_minus_e"):
            if key in new:
                coords = new[key]
                moved = [0] * len(coords)
                for idx, c in enumerate(coords):
                    moved[perm[idx + 1] - 1] = c
                new[key] = moved
        swapped.append(new)
    return swapped


@dataclass
class VerificationRecord:
    identity: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    suite: str
    records: list[VerificationRecord]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> list[VerificationRecord]:
        return [r for r in self.records if not r.ok]


def _expected_table(datum, spec_entries) -> dict:
    return {
        parse_element(el, datum): eval_coefficient(datum, atoms)
        for el, atoms in spec_entries.items()
    }


def _check_product(datum, name, x_str, y_str, expected_entries, records) -> None:
    x = parse_element(x_str, datum)
    y = parse_element(y_str, datum)
    expected = _expected_table(datum, expected_entries)
    computed = pontryagin_constants(x, y).entries
    if computed == expected:
        records.append(VerificationRecord(name, True))
    else:
        detail = _diff_tables(datum, expected, computed)
        records.append(VerificationRecord(name, False, detail))


def _diff_tables(datum, expected, computed) -> str:
    lines = []
    for z in sorted(set(expected) | set(computed), key=element_sort_key):
        e = expected.get(z)
        c = computed.get(z)
        if e != c:
            lines.append(
                f"{format_element(z)}: expected "
                f"{format_gae(e, datum, True) if e is not None else '(absent)'}, got "
                f"{format_gae(c, datum, True) if c is not None else '(absent)'}"
            )
    return "; ".join(lines)


def _check_class(datum, name, kind, w_str, expected_entries, records) -> None:
    from kschubert.nilhecke import k_class, l_class

    w = parse_element(w_str, datum)
    expected = {
        parse_element(el, datum): RationalFunction.from_gae(
            datum, eval_coefficient(datum, atoms)
        )
        for el, atoms in expected_entries.items()
    }
    computed = (k_class if kind == "kclass" else l_class)(w).terms
    if computed == expected:
        records.append(VerificationRecord(name, True))
    else:
        records.append(
            VerificationRecord(
                name,
                False,
                f"expected support {sorted(map(format_element, expected))}, "
                f"got {sorted(map(format_element, computed))} or coefficients differ",
            )
        )


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
    return VerificationReport(suite, records)


def _verify_suite(data: dict, records: list) -> None:
    datum = build_root_system(data["type"])
    swaps = data.get("dynkin_swap")
    perm = {i + 1: p for i, p in enumerate(swaps)} if swaps else None
    for item in data["identities"]:
        kind = item["kind"]
        name = item["name"]
        if kind == "product":
            _check_product(datum, name, item["x"], item["y"], item["entries"], records)
            if perm is not None:
                swapped_entries = {
                    _swap_element_string(el, perm): _swap_atoms(atoms, perm)
                    for el, atoms in item["entries"].items()
                }
                _check_product(
                    datum,
                    name + "-swapped",
                    _swap_element_string(item["x"], perm),
                    _swap_element_string(item["y"], perm),
                    swapped_entries,
                    records,
                )
        elif kind in ("kclass", "lclass"):
            _check_class(datum, name, kind, item["w"], item["entries"], records)
        else:
            records.append(VerificationRecord(name, False, f"unknown kind {kind!r}"))


def load_quantum_data(name: str = "quantum_sl2.json") -> list[QuantumDatum]:
    """Quantum fixtures: the known quantum products stored in the same
    factored-atom coefficient format."""
    data = _load_fixture(name)
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
