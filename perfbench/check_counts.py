"""Check that the counts of the traced run repeat exactly.

For each workload this runs the traced worker twice with the same seed and
once with the next seed.  Every count (``calls``, ``misses``,
``entries_built``, ``term_products`` and the memo sizes), the number of
operations and the canonical-output digest must be identical across the
three: a seed may change only the order of the work, never the work.

Usage: python3 perfbench/check_counts.py [--workload square|scan|verify|all]
       [--seed N]
Exit code 0 when everything repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, ChildError, spawn

COUNT_SUFFIXES = (".calls", ".misses", ".entries_built", ".term_products", ".size")


def _counts(result: dict) -> dict:
    return {k: v for k, v in result["layers"].items() if k.endswith(COUNT_SUFFIXES)}


def compare(label: str, a: dict, b: dict) -> list[str]:
    problems = [
        f"{label}: {key} {a[key]} != {b[key]}"
        for key in ("attempted", "digest")
        if a[key] != b[key]
    ]
    ca, cb = _counts(a), _counts(b)
    problems += [
        f"{label}: {key} {ca.get(key)} != {cb.get(key)}"
        for key in sorted(set(ca) | set(cb))
        if ca.get(key) != cb.get(key)
    ]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            first = spawn(workload, args.seed, 1)
            again = spawn(workload, args.seed, 1)
            other = spawn(workload, args.seed + 1, 1)
        except ChildError as exc:
            problems.append(str(exc))
            continue
        found = compare(f"{workload} seed {args.seed} twice", first, again)
        found += compare(f"{workload} seed {args.seed} vs {args.seed + 1}", first, other)
        found += [
            f"{workload}: {r['failed']} failed operations"
            for r in (first, again, other)
            if r["failed"]
        ]
        print(f"{workload}: {len(_counts(first))} counts, {first['attempted']} operations, "
              + ("repeat exactly" if not found else f"{len(found)} differences"))
        problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
