"""One benchmark child: set-up, one workload, then the oracle check.

``run.py`` starts this script in a fresh single-threaded process for every
sample, so every sample pays the same cold caches a user's process pays.
It prints one JSON object on stdout:

* ``setup_done``: ``time.monotonic()`` once ``kschubert`` is imported and
  the workload's root systems and Weyl groups are built (the parent
  subtracts its spawn time);
* ``wall_s`` and ``op_s``: the timed computations, oracle excluded;
* ``peak_rss_mb``: ``ru_maxrss``, read before the oracle runs;
* ``attempted`` and ``failed``: operations checked by the oracle and
  operations that failed it or raised (details go to stderr);
* ``digest``: sha256 of the canonical outputs, independent of the seed;
* ``layers`` and ``absent``: the traced metrics, with ``--trace 1``.

Usage: python3 perfbench/worker.py --workload square|scan|verify
       [--seed N] [--trace 0|1] [--setup-only]
(``PYTHONPATH`` must point at the repository's ``src``.)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Root systems built during set-up, per workload.
SETUP_TYPES = {"square": ("A2", "A3"), "scan": ("A2",), "verify": ("A1", "A2")}

SQUARE_INPUTS = (("A2", "t[-2,-2]"), ("A3", "s2*s3 t[-1,-1,-1]"))
SCAN_TYPE, SCAN_MAX_LENGTH = "A2", 6
VERIFY_ARGV = ["verify", "--suite", "all", "--json"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Timings and oracle verdicts of one child."""

    def __init__(self):
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed: set[str] = set()
        self.failures: list[str] = []

    def fail(self, what: str, detail: str) -> None:
        """Mark the operation ``what`` failed; it counts once however many
        checks it fails."""
        self.failed.add(what)
        self.failures.append(f"{what}: {detail}")

    def timed(self, what: str, fn, *args):
        """Call fn, record its time; an exception is one failed operation."""
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.fail(what, traceback.format_exc(limit=3))
            return None
        finally:
            self.op_s.append(time.perf_counter() - start)


def _check_table(run: Run, ks, what: str, x, y, entries) -> None:
    """Oracle for one product: the triangular-solve route gives the same
    table and the augmentations sum to 1."""
    try:
        linear = ks.constants.pontryagin_constants_linear(x, y).entries
        if entries != linear:
            run.fail(what, "differs from pontryagin_constants_linear")
        if sum(c.augmentation() for c in entries.values()) != 1:
            run.fail(what, "augmentations do not sum to 1")
    except Exception:
        run.fail(what, traceback.format_exc(limit=3))


def _table_payload(ks, x, y, entries) -> dict:
    """The payload of ``kschubert constant --json`` for one table."""
    fmt = ks.weyl.format_element
    key = ks.constants.element_sort_key
    return {
        "schema_version": ks.cli.SCHEMA_VERSION,
        "command": "constant",
        "x": fmt(x),
        "y": fmt(y),
        "entries": {
            fmt(z): ks.ring.gae_to_json(c)
            for z, c in sorted(entries.items(), key=lambda t: key(t[0]))
        },
    }


# Workloads: each returns (compute, check); compute is timed, check runs
# after peak memory is read and returns the canonical output text.


def square(ks, seed: int):
    """O_x . O_x for fixed inputs, cold caches; the seed orders the two."""
    inputs = [
        ks.weyl.parse_element(text, ks.rootsys.build_root_system(label))
        for label, text in SQUARE_INPUTS
    ]
    order = list(range(len(inputs)))
    random.Random(seed).shuffle(order)
    tables = {}

    def compute(run: Run):
        for i in order:
            x = inputs[i]
            table = run.timed(f"square {x!r}", ks.constants.pontryagin_constants, x, x)
            if table is not None:
                tables[i] = table.entries

    def check(run: Run) -> str:
        payloads = []
        for i, x in enumerate(inputs):
            what = f"square {x!r}"
            run.attempted += 1
            if i not in tables:
                run.fail(what, "no output")
                continue
            _check_table(run, ks, what, x, x, tables[i])
            payloads.append(_table_payload(ks, x, x, tables[i]))
        return json.dumps(payloads, indent=2)

    return compute, check


def scan(ks, seed: int):
    """conjecture_check over every pair x <= y of the A2 Grassmannian ball
    of length <= 6, in seeded order, in one process with warm memos."""
    datum = ks.rootsys.build_root_system(SCAN_TYPE)
    ball = ks.weyl.grassmannian_ball(datum, SCAN_MAX_LENGTH)
    pairs = [(x, y) for i, x in enumerate(ball) for y in ball[i:]]
    order = list(range(len(pairs)))
    random.Random(seed).shuffle(order)
    reports = {}

    def compute(run: Run):
        fin = ks.weyl.finite_element
        key = ks.constants.element_sort_key
        finite_pairs = sorted(
            {(fin(datum, x.wmat), fin(datum, y.wmat)) for x, y in pairs},
            key=lambda p: (key(p[0]), key(p[1])),
        )
        try:
            data = ks.constants.classical_quantum_data(datum, finite_pairs)
        except Exception:
            # Every pair then fails as having no output.
            run.failures.append(traceback.format_exc(limit=3))
            return
        for i in order:
            x, y = pairs[i]
            report = run.timed(f"scan {x!r}*{y!r}", ks.constants.conjecture_check, x, y, data)
            if report is not None:
                reports[i] = report

    def check(run: Run) -> str:
        fmt = ks.weyl.format_element
        gae = ks.ring.gae_to_json
        records = []
        for i, (x, y) in enumerate(pairs):
            what = f"scan {x!r}*{y!r}"
            run.attempted += 1
            report = reports.get(i)
            if report is None:
                run.fail(what, "no output")
                continue
            if report.mismatches:
                run.fail(what, f"{report.mismatches} conjecture mismatches")
            entries = {e.z: e.c_value for e in report.entries if e.c_value}
            _check_table(run, ks, what, x, y, entries)
            records.extend(
                {
                    "x": fmt(x),
                    "y": fmt(y),
                    "z": fmt(e.z),
                    "c": gae(e.c_value),
                    "w": fmt(e.w),
                    "eta": list(e.eta),
                    "N": gae(e.n_value) if e.n_value is not None else None,
                    "verdict": e.verdict,
                }
                for e in report.entries
            )
        return json.dumps(records, indent=2)

    return compute, check


def verify(ks, seed: int):
    """``kschubert verify --suite all --json`` through cli.main, cold; the
    embedded reference tables are the oracle.  The input is fixed, so the
    seed changes nothing."""
    captured = io.StringIO()
    code = None

    def compute(run: Run):
        nonlocal code
        with contextlib.redirect_stdout(captured):
            code = run.timed("verify", ks.cli.main, list(VERIFY_ARGV))

    def check(run: Run) -> str:
        text = captured.getvalue()
        try:
            records = json.loads(text)["records"]
        except (ValueError, KeyError, TypeError):
            run.attempted += 1
            run.fail("verify", f"exit code {code}, unreadable payload")
            return text
        run.attempted += max(len(records), 1)
        for record in records:
            if not record.get("ok"):
                run.fail(f"verify {record.get('identity')}", record.get("detail", ""))
        if not run.failed and (not records or code != 0):
            run.fail("verify", f"exit code {code}, {len(records)} records")
        return text

    return compute, check


WORKLOADS = {"square": square, "scan": scan, "verify": verify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one kschubert benchmark child")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The workloads look functions up through the package at call time, so
    # traced wrappers and removed names are seen as they are.
    import kschubert as ks
    import kschubert.cli  # noqa: F401 -- imports, and binds on ks, every layer

    src = (ROOT / "src").resolve()
    if src not in Path(ks.__file__).resolve().parents:
        print(f"kschubert imported from {ks.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    for label in SETUP_TYPES[args.workload]:
        ks.weyl.weyl_group(ks.rootsys.build_root_system(label))
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    compute, check = WORKLOADS[args.workload](ks, args.seed)
    run = Run()
    start = time.perf_counter()
    compute(run)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = absent = None
    if tracer is not None:
        layers, absent = tracer.snapshot(), tracer.absent
        tracer.uninstall()
    canonical = check(run)
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "setup_done": setup_done,
                "wall_s": wall_s,
                "op_s": run.op_s,
                "peak_rss_mb": peak_rss_mb,
                "attempted": run.attempted,
                "failed": len(run.failed),
                "digest": _digest(canonical),
                "layers": layers,
                "absent": absent,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
