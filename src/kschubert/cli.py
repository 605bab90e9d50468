"""Command-line front end.

Commands: roots, element, bcoeff, ecoeff, kclass, lclass, product, constant,
verify, conjecture.  Every command supports --json for machine-readable
output with stable key ordering (elements sorted by (length, string)), so
fixed inputs produce byte-identical output.  Exit codes: 0 success (and all
identities matched for verify/conjecture), 1 any mismatch, 2 usage error,
3 internal error (an engine invariant failed: a surviving denominator, a
singular triangular solve or a class of the wrong shape).  Errors are
emitted as a structured JSON object on stderr, argparse's own errors
included; internal errors carry "kind": "internal".  A stdout or stderr
closed early (``| head``) keeps the exit code.

Each handler returns (exit code, fields, human lines) and prints nothing;
``main`` puts schema_version and command in front of the fields and prints
the JSON under --json, the lines otherwise (``constant`` has no lines, so
it prints its JSON in both modes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from kschubert.constants import (
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
    e_row,
    k_class,
    l_class,
    loc_row,
)
from kschubert.ring import (
    NonPolynomialError,
    format_gae,
    format_rf,
    gae_to_json,
    rf_to_json,
)
from kschubert.rootsys import build_root_system
from kschubert.weyl import (
    coset_min,
    coset_translation,
    finite_part,
    format_element,
    grassmannian_ball,
    is_grassmannian,
    length,
    parse_element,
    reduced_word,
)

SCHEMA_VERSION = 1

_DEFAULT_GUARD = {"A1": 8}
# ``element`` takes no guard; it refuses a reduced word longer than this.
_ELEMENT_MAX_LENGTH = 100_000


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (an unknown command or flag, a missing
    or malformed argument) as ``UsageError``, reported like every other."""

    def error(self, message):
        raise UsageError(message)


def _datum(args):
    if args.type is not None and args.cartan is not None:
        raise UsageError("give --type or --cartan, not both")
    if args.cartan is not None:
        try:
            matrix = json.loads(args.cartan)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--cartan is not valid JSON: {exc}")
        return build_root_system(matrix)
    return build_root_system("A1" if args.type is None else args.type)


def _guard(args, datum) -> int:
    if args.max_length is not None:
        if args.max_length < 0:
            raise UsageError(f"--max-length must be >= 0, got {args.max_length}")
        return args.max_length
    return _DEFAULT_GUARD.get(datum.label, 6)


def _inputs(args, *names) -> tuple:
    """The datum and the elements ``args.x``, ``args.y`` or ``args.w`` that
    ``names`` asks for, each refused above the length guard."""
    datum = _datum(args)
    guard = _guard(args, datum)
    elements = []
    for name in names:
        x = parse_element(getattr(args, name), datum)
        if length(x) > guard:
            raise UsageError(
                f"element {format_element(x)!r} has length {length(x)} > guard "
                f"{guard}; raise --max-length to proceed"
            )
        elements.append(x)
    return (datum, *elements)


def _sorted_row(row) -> dict:
    """A row keyed by element strings, in (length, string) order: the one
    view that both the JSON and the human output read."""
    return {format_element(x): row[x] for x in sorted(row, key=element_sort_key)}


def _cmd_roots(args):
    datum = _datum(args)
    fields = {
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
    return 0, fields, lines


def _cmd_element(args):
    x = parse_element(args.element, _datum(args))
    if length(x) > _ELEMENT_MAX_LENGTH:
        raise UsageError(f"element {format_element(x)!r} has length {length(x)} > {_ELEMENT_MAX_LENGTH}")
    fields = {
        "element": format_element(x),
        "length": length(x),
        "reduced_word": list(reduced_word(x)),
        "is_grassmannian": is_grassmannian(x),
        "coset_min": format_element(coset_min(x)),
        "translation": list(x.trans),
    }
    line = (
        f"{fields['element']}: length {fields['length']}, reduced word "
        f"{fields['reduced_word']}, grassmannian={fields['is_grassmannian']}, "
        f"coset min {fields['coset_min']}"
    )
    return 0, fields, [line]


def _cmd_bcoeff(args):
    _, x = _inputs(args, "x")
    row = _sorted_row(loc_row(x))
    fields = {
        "element": format_element(x),
        "b_row": {v: rf_to_json(c) for v, c in row.items()},
        "coset_b": {
            "t[" + ",".join(map(str, key)) + "]": rf_to_json(v)
            for key, v in sorted(b_cosets(x).items())
        },
    }
    lines = [f"b-coefficients of {format_element(x)}:"]
    lines += [f"  {v}: {format_rf(c, args.root_exponents)}" for v, c in row.items()]
    return 0, fields, lines


def _cmd_ecoeff(args):
    datum, x = _inputs(args, "x")
    row, sums = e_row(x), {}
    for v, c in row.items():  # the coset sums e_{x,[z]}, grouped from the row
        z = coset_min(v)
        sums[z] = sums[z] + c if z in sums else c
    row, coset_e = _sorted_row(row), _sorted_row({z: c for z, c in sums.items() if c})
    fields = {
        "element": format_element(x),
        "e_row": {v: gae_to_json(c) for v, c in row.items()},
        "coset_e": {v: gae_to_json(c) for v, c in coset_e.items()},
    }
    lines = [f"e-coefficients of {format_element(x)}:"]
    lines += [f"  {v}: {format_gae(c, datum, args.root_exponents)}" for v, c in row.items()]
    return 0, fields, lines


def _cmd_class(args):
    _, w = _inputs(args, "w")
    if not is_grassmannian(w):
        raise UsageError(f"{format_element(w)} is not an affine Grassmannian element")
    row = _sorted_row((k_class if args.command == "kclass" else l_class)(w))
    fields = {
        "element": format_element(w),
        "basis": "t",
        "coefficients": {v: rf_to_json(c) for v, c in row.items()},
    }
    lines = [f"{args.command[0]}_{{{format_element(w)}}} in the T-basis:"]
    lines += [f"  T_{{{v}}}: {format_rf(c, args.root_exponents)}" for v, c in row.items()]
    return 0, fields, lines


def _cmd_product(args):
    """``product`` and ``constant``; ``constant`` prints its JSON in both
    modes."""
    datum, x, y = _inputs(args, "x", "y")
    if not (is_grassmannian(x) and is_grassmannian(y)):
        raise UsageError("both --x and --y must be affine Grassmannian elements")
    table = pontryagin_constants(x, y)
    entries = _sorted_row(table.entries)
    fields = {
        "x": format_element(x),
        "y": format_element(y),
        "entries": {z: gae_to_json(c) for z, c in entries.items()},
        "warnings": list(table.warnings),
    }
    if args.command == "constant":
        return 0, fields, None
    lines = [f"O_{{{fields['x']}}} . O_{{{fields['y']}}} ="]
    lines += [f"  ({format_gae(c, datum, args.root_exponents)}) O_{{{z}}}" for z, c in entries.items()]
    lines += [f"  warning: {w}" for w in table.warnings]
    return 0, fields, lines


def _cmd_verify(args):
    failed, records, lines = 0, [], []
    for r in verify_embedded_tables(args.suite):
        failed += not r.ok
        records.append({"identity": r.identity, "ok": r.ok, "detail": r.detail})
        lines.append(f"{'PASS' if r.ok else 'FAIL'} {r.identity}" + (f"  [{r.detail}]" if r.detail else ""))
    lines.append(f"{len(records) - failed}/{len(records)} identities verified")
    fields = {"suite": args.suite, "total": len(records), "failed": failed, "records": records}
    return int(failed > 0), fields, lines


def _conjecture_inputs(datum, bound: int, guard: int):
    """The Grassmannian elements of length <= guard whose coset translation
    has coordinates in [-bound, bound]: each coset holds exactly one
    translation, so these are the coset minima of the translations in that
    box that pass the guard, in (length, string) order."""
    ball = grassmannian_ball(datum, guard)
    reps = [x for x in ball if max(map(abs, coset_translation(x))) <= bound]
    return sorted(reps, key=element_sort_key)


def _cmd_conjecture(args):
    if args.max_translation < 0:
        raise UsageError(f"--max-translation must be >= 0, got {args.max_translation}")
    datum = _datum(args)
    reps = _conjecture_inputs(datum, args.max_translation, _guard(args, datum))
    # The reps are distinct and sorted, so each pair x <= y comes once.
    pairs = [(x, y) for i, x in enumerate(reps) for y in reps[i:]]
    finite = dict.fromkeys((finite_part(x), finite_part(y)) for x, y in pairs)
    data = list(load_quantum_data()) if datum.label == "A1" else []
    data.extend(classical_quantum_data(datum, finite))
    records, counts = [], {"match": 0, "mismatch": 0, "no-data": 0}
    for x, y in pairs:
        for e in conjecture_check(x, y, data).entries:
            counts[e.verdict] += 1
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
    matches, mismatches, nodata = counts.values()
    fields = {
        "type": datum.label,
        "max_translation": args.max_translation,
        "matches": matches,
        "mismatches": mismatches,
        "no_data": nodata,
        "records": records,
    }
    lines = [
        f"{r['x']} * {r['y']} -> {r['z']} (w={r['w']}, eta={r['eta']}): {r['verdict']}"
        for r in records
    ]
    lines.append(f"matches={matches} mismatches={mismatches} no-data={nodata}")
    return int(mismatches > 0), fields, lines


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kschubert",
        description="Exact Schubert structure constants for the Pontryagin "
        "product on the K-homology of affine Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, with_type=True, guarded=False, formatted=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if with_type:
            p.add_argument("--type", default=None, help="type label A1/A2/A3")
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

    command("roots", "root-system data", _cmd_roots)

    p = command("element", "parse and canonicalize an element", _cmd_element)
    p.add_argument("element", help="element string, e.g. 's1*s2 t[-1,-1]'")

    p = command("bcoeff", "b-coefficient row of an element", _cmd_bcoeff, guarded=True, formatted=True)
    p.add_argument("--x", required=True)

    p = command("ecoeff", "e-coefficient row of an element", _cmd_ecoeff, guarded=True, formatted=True)
    p.add_argument("--x", required=True)

    for kind, sheaf in (("kclass", "ideal-sheaf"), ("lclass", "structure-sheaf")):
        p = command(kind, f"projected {sheaf} class in the T-basis", _cmd_class, guarded=True, formatted=True)
        p.add_argument("--w", required=True)

    p = command("product", "Pontryagin product, human-readable", _cmd_product, guarded=True, formatted=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = command("constant", "structure-constant table as JSON", _cmd_product, guarded=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = command("verify", "recompute the embedded reference tables", _cmd_verify, with_type=False)
    p.add_argument("--suite", choices=["sl2", "sl3", "all"], default="all")

    p = command("conjecture", "compare affine constants with quantum data", _cmd_conjecture, guarded=True)
    p.add_argument("--max-translation", type=int, default=2)
    return parser


def _emit(text: str, stream) -> None:
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:  # the reader is gone: the flush at exit goes to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _report_error(exc: Exception, **extra) -> None:
    error = {"type": type(exc).__name__, "message": str(exc), **extra}
    _emit(json.dumps({"schema_version": SCHEMA_VERSION, "error": error}), sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, fields, lines = args.run(args)
    except SystemExit:  # --help, printed; argparse's errors raise UsageError
        return 0
    except ValueError as exc:  # UsageError and every input error subclass it
        _report_error(exc)
        return 2
    except (NonPolynomialError, SingularSystemError, ShapeViolationError) as exc:
        # A broken invariant inside the engine, not a mismatch and not the
        # caller's mistake.
        _report_error(exc, kind="internal")
        return 3
    if args.json or lines is None:
        text = json.dumps({"schema_version": SCHEMA_VERSION, "command": args.command, **fields}, indent=2)
    else:
        text = "\n".join(lines)
    _emit(text, sys.stdout)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
