"""Command-line front end.

Commands: roots, element, bcoeff, ecoeff, kclass, lclass, product, constant,
verify, conjecture.  Every command supports --json for machine-readable
output with stable key ordering (elements sorted by (length, string)), so
fixed inputs produce byte-identical output.  Exit codes: 0 success (and all
identities matched for verify/conjecture), 1 any mismatch, 2 usage error,
3 internal error (an engine invariant failed: a surviving denominator, a
singular triangular solve or a class of the wrong shape).  Errors are
emitted as a structured JSON object on stderr; internal errors carry
"kind": "internal".
"""

from __future__ import annotations

import argparse
import json
import sys

from kschubert.constants import (
    ConjectureReport,
    SingularSystemError,
    classical_quantum_data,
    conjecture_check,
    element_sort_key,
    load_quantum_data,
    pontryagin_constants,
    verify_embedded_tables,
)
from kschubert.nilhecke import (
    ShapeViolationError,
    b_cosets,
    e_cosets,
    e_row,
    k_class,
    l_class,
    y_in_loc,
)
from kschubert.ring import (
    NonPolynomialError,
    format_gae,
    format_rf,
    gae_to_json,
    rf_to_json,
)
from kschubert.rootsys import (
    InvalidCartanMatrixError,
    UnsupportedTypeError,
    build_root_system,
)
from kschubert.weyl import (
    ParseError,
    ValidationError,
    coset_min,
    coset_translation,
    finite_part,
    format_element,
    grassmannian_ball,
    identity,
    is_grassmannian,
    length,
    parse_element,
    reduced_word,
)

SCHEMA_VERSION = 1

_DEFAULT_GUARD = {"A1": 8, "A2": 6}


class UsageError(ValueError):
    pass


def _datum(args):
    if args.cartan:
        try:
            matrix = json.loads(args.cartan)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--cartan is not valid JSON: {exc}")
        return build_root_system(matrix)
    return build_root_system(args.type)


def _guard(args, datum) -> int:
    if args.max_length is not None:
        if args.max_length < 0:
            raise UsageError(f"--max-length must be >= 0, got {args.max_length}")
        return args.max_length
    return _DEFAULT_GUARD.get(datum.label, 6)


def _parse_guarded(text, datum, guard):
    x = parse_element(text, datum)
    if length(x) > guard:
        raise UsageError(
            f"element {format_element(x)!r} has length {length(x)} > guard "
            f"{guard}; raise --max-length to proceed"
        )
    return x


def _emit(payload: dict, args, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _row_json(row, value_encoder):
    return {
        format_element(x): value_encoder(c)
        for x, c in sorted(row.items(), key=lambda t: element_sort_key(t[0]))
    }


def _cmd_roots(args) -> int:
    datum = _datum(args)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "roots",
        "label": datum.label,
        "rank": datum.rank,
        "cartan_matrix": [list(r) for r in datum.cartan],
        "simple_roots": [list(r) for r in datum.simple_roots],
        "positive_roots": [list(r) for r in datum.positive_roots],
        "positive_coroots": [list(r) for r in datum.positive_coroots],
        "highest_root": list(datum.highest_root),
        "highest_coroot": list(datum.highest_coroot),
    }
    lines = [
        f"type {datum.label}, rank {datum.rank}",
        f"positive roots ({len(datum.positive_roots)}): "
        + ", ".join(str(r) for r in datum.positive_roots),
        f"highest root {datum.highest_root}, highest coroot {datum.highest_coroot}",
    ]
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_element(args) -> int:
    datum = _datum(args)
    x = parse_element(args.element, datum)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "element",
        "element": format_element(x),
        "length": length(x),
        "reduced_word": list(reduced_word(x)),
        "is_grassmannian": is_grassmannian(x),
        "coset_min": format_element(coset_min(x)),
        "translation": list(x.trans),
    }
    human = (
        f"{format_element(x)}: length {length(x)}, reduced word "
        f"{list(reduced_word(x))}, grassmannian={is_grassmannian(x)}, "
        f"coset min {format_element(coset_min(x))}"
    )
    _emit(payload, args, human)
    return 0


def _cmd_bcoeff(args) -> int:
    datum = _datum(args)
    x = _parse_guarded(args.x, datum, _guard(args, datum))
    row = y_in_loc(x).terms
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "bcoeff",
        "element": format_element(x),
        "b_row": _row_json(row, rf_to_json),
        "coset_b": {
            "t[" + ",".join(map(str, key)) + "]": rf_to_json(v)
            for key, v in sorted(b_cosets(x).items())
        },
    }
    lines = [f"b-coefficients of {format_element(x)}:"]
    for v, c in sorted(row.items(), key=lambda t: element_sort_key(t[0])):
        lines.append(f"  {format_element(v)}: {format_rf(c, args.root_exponents)}")
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_ecoeff(args) -> int:
    datum = _datum(args)
    x = _parse_guarded(args.x, datum, _guard(args, datum))
    row = e_row(x)
    coset_e = e_cosets(x, identity(datum))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "ecoeff",
        "element": format_element(x),
        "e_row": _row_json(row, gae_to_json),
        "coset_e": _row_json(coset_e, gae_to_json),
    }
    lines = [f"e-coefficients of {format_element(x)}:"]
    for v, c in sorted(row.items(), key=lambda t: element_sort_key(t[0])):
        lines.append(f"  {format_element(v)}: {format_gae(c, datum, args.root_exponents)}")
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_class(args, kind: str) -> int:
    datum = _datum(args)
    w = _parse_guarded(args.w, datum, _guard(args, datum))
    if not is_grassmannian(w):
        raise UsageError(f"{format_element(w)} is not an affine Grassmannian element")
    cls = (k_class if kind == "kclass" else l_class)(w)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": kind,
        "element": format_element(w),
        "basis": "t",
        "coefficients": _row_json(cls.terms, rf_to_json),
    }
    symbol = "k" if kind == "kclass" else "l"
    lines = [f"{symbol}_{{{format_element(w)}}} in the T-basis:"]
    for v, c in sorted(cls.terms.items(), key=lambda t: element_sort_key(t[0])):
        lines.append(f"  T_{{{format_element(v)}}}: {format_rf(c, args.root_exponents)}")
    _emit(payload, args, "\n".join(lines))
    return 0


def _product_payload(args, command: str):
    datum = _datum(args)
    guard = _guard(args, datum)
    x = _parse_guarded(args.x, datum, guard)
    y = _parse_guarded(args.y, datum, guard)
    if not (is_grassmannian(x) and is_grassmannian(y)):
        raise UsageError("both --x and --y must be affine Grassmannian elements")
    table = pontryagin_constants(x, y)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "x": format_element(x),
        "y": format_element(y),
        "entries": {
            format_element(z): gae_to_json(c) for z, c in table.sorted_entries()
        },
        "warnings": list(table.warnings),
    }
    return datum, table, payload


def _cmd_constant(args) -> int:
    _, _, payload = _product_payload(args, "constant")
    _emit(payload, args, json.dumps(payload, indent=2))
    return 0


def _cmd_product(args) -> int:
    datum, table, payload = _product_payload(args, "product")
    lines = [f"O_{{{payload['x']}}} . O_{{{payload['y']}}} ="]
    for z, c in table.sorted_entries():
        coeff = format_gae(c, datum, args.root_exponents)
        lines.append(f"  ({coeff}) O_{{{format_element(z)}}}")
    for w in table.warnings:
        lines.append(f"  warning: {w}")
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    report = verify_embedded_tables(args.suite)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "suite": args.suite,
        "total": len(report.records),
        "failed": len(report.failures),
        "records": [
            {"identity": r.identity, "ok": r.ok, "detail": r.detail}
            for r in report.records
        ],
    }
    lines = [
        f"{'PASS' if r.ok else 'FAIL'} {r.identity}" + (f"  [{r.detail}]" if r.detail else "")
        for r in report.records
    ]
    lines.append(
        f"{len(report.records) - len(report.failures)}/{len(report.records)} identities verified"
    )
    _emit(payload, args, "\n".join(lines))
    return 0 if report.ok else 1


def _conjecture_inputs(datum, bound: int, guard: int):
    """The Grassmannian elements of length <= guard whose coset translation
    has coordinates in [-bound, bound]: each coset holds exactly one
    translation, so these are the coset minima of the translations in that
    box that pass the guard, in (length, string) order."""
    ball = grassmannian_ball(datum, guard)
    reps = [x for x in ball if max(map(abs, coset_translation(x))) <= bound]
    return sorted(reps, key=element_sort_key)


def _cmd_conjecture(args) -> int:
    if args.max_translation < 0:
        raise UsageError(f"--max-translation must be >= 0, got {args.max_translation}")
    datum = _datum(args)
    guard = _guard(args, datum)
    data = list(load_quantum_data()) if datum.label == "A1" else []
    data = [d for d in data if d.u.datum == datum]
    reps = _conjecture_inputs(datum, args.max_translation, guard)
    finite_pairs = {
        (finite_part(x), finite_part(y))
        for x in reps
        for y in reps
    }
    data.extend(classical_quantum_data(datum, sorted(finite_pairs, key=lambda p: (element_sort_key(p[0]), element_sort_key(p[1])))))
    records = []
    mismatches = matches = nodata = 0
    for x in reps:
        for y in reps:
            if element_sort_key(y) < element_sort_key(x):
                continue
            report: ConjectureReport = conjecture_check(x, y, data)
            for e in report.entries:
                records.append(
                    {
                        "x": format_element(x),
                        "y": format_element(y),
                        "z": format_element(e.z),
                        "c": gae_to_json(e.c_value),
                        "w": format_element(e.w),
                        "eta": list(e.eta),
                        "N": gae_to_json(e.n_value) if e.n_value is not None else None,
                        "verdict": e.verdict,
                    }
                )
            mismatches += report.mismatches
            matches += report.matches
            nodata += sum(1 for e in report.entries if e.verdict == "no-data")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "conjecture",
        "type": datum.label,
        "max_translation": args.max_translation,
        "matches": matches,
        "mismatches": mismatches,
        "no_data": nodata,
        "records": records,
    }
    human = [
        f"{r['x']} * {r['y']} -> {r['z']} (w={r['w']}, eta={r['eta']}): {r['verdict']}"
        for r in records
    ]
    human.append(f"matches={matches} mismatches={mismatches} no-data={nodata}")
    _emit(payload, args, "\n".join(human))
    return 0 if mismatches == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kschubert",
        description="Exact Schubert structure constants for the Pontryagin "
        "product on the K-homology of affine Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, with_type=True, guarded=False, formatted=False):
        p = sub.add_parser(name, help=help)
        if with_type:
            p.add_argument("--type", default="A1", help="type label A1/A2/A3")
            p.add_argument(
                "--cartan",
                default=None,
                help="explicit Cartan matrix as a JSON array of arrays",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if guarded:
            p.add_argument(
                "--max-length",
                type=int,
                default=None,
                help="guard on input element length (default 8 for A1, 6 otherwise)",
            )
        if formatted:
            p.add_argument(
                "--root-exponents",
                action="store_true",
                help="print monomial exponents in simple-root coordinates",
            )
        return p

    command("roots", "root-system data")

    p = command("element", "parse and canonicalize an element")
    p.add_argument("element", help="element string, e.g. 's1*s2 t[-1,-1]'")

    p = command("bcoeff", "b-coefficient row of an element", guarded=True, formatted=True)
    p.add_argument("--x", required=True)

    p = command("ecoeff", "e-coefficient row of an element", guarded=True, formatted=True)
    p.add_argument("--x", required=True)

    p = command(
        "kclass", "projected ideal-sheaf class in the T-basis", guarded=True, formatted=True
    )
    p.add_argument("--w", required=True)

    p = command(
        "lclass", "projected structure-sheaf class in the T-basis", guarded=True, formatted=True
    )
    p.add_argument("--w", required=True)

    p = command("product", "Pontryagin product, human-readable", guarded=True, formatted=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = command("constant", "structure-constant table as JSON", guarded=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = command("verify", "recompute the embedded reference tables", with_type=False)
    p.add_argument("--suite", choices=["sl2", "sl3", "all"], default="all")

    p = command("conjecture", "compare affine constants with quantum data", guarded=True)
    p.add_argument("--max-translation", type=int, default=2)
    return parser


_DISPATCH = {
    "roots": _cmd_roots,
    "element": _cmd_element,
    "bcoeff": _cmd_bcoeff,
    "ecoeff": _cmd_ecoeff,
    "kclass": lambda a: _cmd_class(a, "kclass"),
    "lclass": lambda a: _cmd_class(a, "lclass"),
    "product": _cmd_product,
    "constant": _cmd_constant,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
}


def _report_error(exc: Exception, **extra) -> None:
    error = {"type": type(exc).__name__, "message": str(exc), **extra}
    print(json.dumps({"schema_version": SCHEMA_VERSION, "error": error}), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except (
        UsageError,
        ParseError,
        ValidationError,
        UnsupportedTypeError,
        InvalidCartanMatrixError,
        ValueError,
    ) as exc:
        _report_error(exc)
        return 2
    except (NonPolynomialError, SingularSystemError, ShapeViolationError) as exc:
        # A broken invariant inside the engine, not a mismatch and not the
        # caller's mistake.
        _report_error(exc, kind="internal")
        return 3
    except RecursionError as exc:
        _report_error(exc, hint="input too long for the engine; lower --max-length")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
