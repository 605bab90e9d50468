import copy
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import cold, coset_sums, counting_e_rows, e_row_subword, skewed_diagonal
import kschubert
from kschubert import cli, constants, nilhecke
from kschubert.cli import main
from kschubert.constants import SingularSystemError, element_sort_key, pontryagin_constants
from kschubert.nilhecke import ShapeViolationError
from kschubert.ring import GroupAlgebraElement, NonPolynomialError, gae_to_json
from kschubert.rootsys import build_root_system
from kschubert.weyl import affine_ball, coset_min, format_element, length, parse_element, translation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["highest_root"] == [1, 1]
    assert payload["rank"] == 2


def test_roots_custom_cartan(capsys):
    code, out, _ = run(capsys, "roots", "--cartan", "[[2,-1],[-1,2]]", "--json")
    assert code == 0
    assert json.loads(out)["positive_roots"] == [[-1, 2], [2, -1], [1, 1]]
    for bad in ["5", "null", "[2]", "[[2, -1.5], [-1, 2]]", '[["2"]]', "[[2.9]]"]:
        code, out, err = run(capsys, "roots", "--cartan", bad, "--json")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InvalidCartanMatrixError"


@pytest.mark.parametrize("label", ["A1", "A3"])
def test_type_and_cartan_together_are_a_usage_error(capsys, label):
    # --type A1 equals the default, and is still refused next to --cartan.
    for command in (["roots"], ["bcoeff", "--x", "t[-1]"]):
        code, out, err = run(capsys, *command, "--type", label, "--cartan", "[[2]]")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "UsageError", "message": "give --type or --cartan, not both"}
    alone = [run(capsys, "roots", *flags, "--json") for flags in ([], ["--type", "A1"], ["--cartan", "[[2]]"])]
    assert alone[0] == alone[1] == alone[2] and alone[0][0] == 0


def test_empty_cartan_is_not_an_absent_one(capsys):
    # --cartan "" is a matrix given empty, refused as JSON, not the default.
    code, out, err = run(capsys, "roots", "--cartan", "")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "UsageError", "message": "--cartan is not valid JSON: Expecting value: line 1 column 1 (char 0)"
    }
    code, out, err = run(capsys, "roots", "--type", "A1", "--cartan", "")
    assert code == 2 and json.loads(err)["error"]["message"] == "give --type or --cartan, not both"


@pytest.mark.parametrize("argv", [["conjecture", "--type", "A2", "--json"], ["verify", "--suite", "sl2"]])
def test_closed_stdout_keeps_the_exit_code_and_stderr_empty(argv):
    # The read end of the child's stdout pipe is closed before the child
    # writes, as when `| head -1` has exited: no traceback on stderr, and
    # the handler's own exit code.
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "kschubert.cli", *argv], stdout=write, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(kschubert.__file__).parents[1])},
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")


@pytest.mark.parametrize("argv", [["roots", "--type", "Z9"], ["frobnicate"]])
def test_closed_stderr_keeps_the_exit_code(argv):
    # The read end of the child's stderr pipe is closed before the child
    # reports its usage error: no traceback, and exit 2, not 1.
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "kschubert.cli", *argv], stdout=subprocess.PIPE, stderr=write, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(kschubert.__file__).parents[1])},
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stdout) == (2, b"")


def test_element_on_a_weyl_group_of_5040_elements(capsys):
    # A6: its Cayley table would hold |W|^2 = 25.4 million entries, but only
    # the rows an element string reads are built.
    a6 = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(6)] for i in range(6)]
    text = "s1*s2*s3*s4*s5*s6 t[-1,0,0,0,0,-1]"
    code, out, _ = run(capsys, "element", "--cartan", json.dumps(a6), text, "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["element"], payload["length"], payload["is_grassmannian"]) == (text, 16, False)
    assert payload["coset_min"] == "s1*s3*s2*s4*s3*s5*s4*s6*s5*s4*s3*s2 t[-1,-2,-2,-2,-2,-1]"


def test_element_refuses_a_weyl_group_too_large_to_tabulate(capsys):
    # E8: |W| = 696,729,600 is read off the Cartan matrix, before any search.
    e8 = [[2, 0, -1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0, 0],
          [0, -1, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
          [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]]
    start = time.monotonic()
    code, out, err = run(capsys, "element", "--cartan", json.dumps(e8), "s1", "--json")
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and "696729600 elements" in error["message"]
    assert run(capsys, "roots", "--cartan", json.dumps(e8))[0] == 0


@pytest.mark.parametrize(
    "label,matrix,bound", [("A1", "[[2]]", "2"), ("A2", "[[2,-1],[-1,2]]", "1")], ids=["A1", "A2"]
)
def test_builtin_matrix_spelled_out_gives_the_builtin_answers(capsys, label, matrix, bound):
    # The SL2 quantum fixture and the A1 default guard are keyed by label.
    argv = ["conjecture", "--max-translation", bound, "--json"]
    _, by_label, _ = run(capsys, *argv, "--type", label)
    _, by_matrix, _ = run(capsys, *argv, "--cartan", matrix)
    assert by_matrix == by_label and json.loads(by_label)["type"] == label


def test_element_refuses_a_length_past_its_cap(capsys):
    # ``element`` takes no --max-length, and its reduced word has one letter
    # per unit of length: a longer element is refused before any walk.
    code, out, err = run(capsys, "element", "--type", "A1", "t[99999999999]", "--json")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError" and "length 199999999998 > 100000" in error["message"]
    half = cli._ELEMENT_MAX_LENGTH // 2
    assert run(capsys, "element", "--type", "A1", f"t[{half + 1}]")[0] == 2
    code, out, _ = run(capsys, "element", "--type", "A1", f"t[{half}]", "--json")
    assert code == 0 and json.loads(out)["length"] == cli._ELEMENT_MAX_LENGTH


def test_element_roundtrip(capsys):
    code, out, _ = run(capsys, "element", "--type", "A1", "s1 t[-1]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["element"] == "s1 t[-1]"
    assert payload["length"] == 1
    assert payload["is_grassmannian"] is True


def test_constant_command_matches_fixture(capsys):
    code, out, _ = run(
        capsys,
        "constant",
        "--type",
        "A1",
        "--x",
        "s1 t[-1]",
        "--y",
        "s1 t[-1]",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["s1 t[-2]"] == [
        {"weight": [-2], "coeff": "-1"},
        {"weight": [0], "coeff": "1"},
    ]
    assert payload["entries"]["t[-1]"] == [{"weight": [-2], "coeff": "1"}]


def test_deterministic_output_bytes(capsys):
    argv = ["constant", "--type", "A2", "--x", "s1 t[-1,-1]", "--y", "s2 t[-1,-1]", "--json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_product_human_readable(capsys):
    code, out, _ = run(
        capsys, "product", "--type", "A1", "--x", "s1 t[-1]", "--y", "t[-1]",
        "--root-exponents",
    )
    assert code == 0
    assert "O_{s1 t[-2]}" in out


def test_bcoeff_and_ecoeff(capsys):
    code, out, _ = run(capsys, "bcoeff", "--type", "A1", "--x", "s1 t[-1]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["b_row"]) == {"id", "s1 t[-1]"}
    code, out, _ = run(capsys, "ecoeff", "--type", "A1", "--x", "s1 t[-1]", "--json")
    payload = json.loads(out)
    assert payload["e_row"]["id"] == [{"weight": [-2], "coeff": "1"}]
    # both inputs lie in the coset (s1 t[-1]) W
    inv = {"num": [{"weight": [0], "coeff": "1"}], "den": [{"root": [2], "mult": 1}]}
    neg = {"num": [{"weight": [2], "coeff": "-1"}], "den": [{"root": [2], "mult": 1}]}
    e_id = [{"weight": [-2], "coeff": "1"}]
    e_s0 = [{"weight": [-2], "coeff": "-1"}, {"weight": [0], "coeff": "1"}]
    for x in ("s1 t[-1]", "t[1]"):
        code, out, _ = run(capsys, "bcoeff", "--type", "A1", "--x", x, "--json")
        assert code == 0
        assert json.loads(out)["coset_b"] == {"t[0]": inv, "t[1]": neg}
        code, out, _ = run(capsys, "ecoeff", "--type", "A1", "--x", x, "--json")
        assert code == 0
        assert json.loads(out)["coset_e"] == {"id": e_id, "s1 t[-1]": e_s0}


@pytest.mark.parametrize(
    "spec,max_len",
    [("A1", 6), ("A2", 4), ([[2, -2], [-1, 2]], 4), ([[2, -1], [-3, 2]], 4)],
    ids=["A1", "A2", "B2", "G2"],
)
def test_ecoeff_coset_sums_match_the_subword_rows(capsys, spec, max_len):
    # ecoeff's coset_e, grouped from the e row it prints, against the
    # subword e row grouped by coset minima, on every element of the ball.
    datum = build_root_system(spec)
    flag = ["--type", spec] if isinstance(spec, str) else ["--cartan", json.dumps(spec)]
    for x in affine_ball(datum, max_len):
        code, out, _ = run(capsys, "ecoeff", *flag, "--x", format_element(x), "--json")
        assert code == 0
        expected = coset_sums(e_row_subword(x))
        order = sorted(expected, key=element_sort_key)
        got = list(json.loads(out)["coset_e"].items())
        assert got == [(format_element(z), gae_to_json(expected[z])) for z in order], x


def test_ecoeff_runs_the_e_kernel_once(capsys, monkeypatch):
    # From a cold kernel, ecoeff builds one e row per prefix of x's reduced
    # word and keeps two, the identity row and the row of x, both started at
    # the identity: the coset sums are grouped from the printed row, not
    # built from a second start.
    datum = build_root_system("A2")
    x = parse_element("s1*s2 t[-2,-2]", datum)
    cold()
    e_rows = counting_e_rows(monkeypatch, datum)
    code, _, _ = run(capsys, "ecoeff", "--type", "A2", "--x", format_element(x), "--json")
    assert code == 0
    rows = nilhecke._kernel(datum).rows
    assert {(start, y_side) for _, start, y_side in rows} == {((0, (0, 0)), True)}
    assert e_rows() == (2, length(x) + 1) == (2, 7)


def test_kclass_lclass(capsys):
    code, out, _ = run(capsys, "kclass", "--type", "A1", "--w", "t[-1]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["coefficients"]) == {"t[-1]", "t[1]"}
    code, out, _ = run(capsys, "lclass", "--type", "A1", "--w", "t[-1]", "--json")
    payload = json.loads(out)
    assert len(payload["coefficients"]) == 5


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sl2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0 and payload["total"] > 0


def test_verify_failure_names_the_entry(capsys, monkeypatch):
    # One atom of the first sl2 product changed from e^{-a1} to e^{-2a1};
    # in one k class, t[1] changed the same way and an entry planted at s1,
    # which the class does not have.  Product and class records alike name
    # each differing entry.
    real_load = constants._load_fixture

    def corrupted(name):
        data = copy.deepcopy(real_load(name))
        square = next(i for i in data["identities"] if i["name"] == "square-g1")
        assert square["entries"]["t[-1]"] == [{"e": [-1]}]
        square["entries"]["t[-1]"] = [{"e": [-2]}]
        kclass = next(i for i in data["identities"] if i["name"] == "kclass-g2")
        assert kclass["entries"]["t[1]"] == [{"e": [-1]}]
        kclass["entries"]["t[1]"] = [{"e": [-2]}]
        kclass["entries"]["s1"] = [{"int": 1}]
        return data

    monkeypatch.setattr(constants, "_load_fixture", corrupted)
    code, out, _ = run(capsys, "verify", "--suite", "sl2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["failed"] == 2
    failing = [r for r in payload["records"] if not r["ok"]]
    class_detail = "s1: expected 1, got (absent); t[1]: expected e^{-2a1}, got e^{-a1}"
    assert failing == [
        {"identity": "square-g1", "ok": False, "detail": "t[-1]: expected e^{-2a1}, got e^{-a1}"},
        {"identity": "kclass-g2", "ok": False, "detail": class_detail},
    ]
    assert all(r["detail"] == "" for r in payload["records"] if r["ok"])
    assert len(payload["records"]) == payload["total"] > 2
    code, out, _ = run(capsys, "verify", "--suite", "sl2")
    assert f"FAIL kclass-g2  [{class_detail}]" in out.splitlines()


def test_conjecture_command(capsys):
    code, out, _ = run(
        capsys, "conjecture", "--type", "A1", "--max-translation", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    assert payload["matches"] > 0
    code, out, err = run(capsys, "conjecture", "--type", "A1", "--max-translation", "-1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


def box_inputs(datum, bound, guard):
    """Reference for the conjecture inputs: the coset minima of every
    translation with coordinates in [-bound, bound], cut to the guard."""
    box = itertools.product(range(-bound, bound + 1), repeat=datum.rank)
    reps = {coset_min(translation(datum, c)) for c in box}
    return sorted((x for x in reps if length(x) <= guard), key=element_sort_key)


@pytest.mark.parametrize("spec", ["A1", "A2", [[2, -2], [-1, 2]]], ids=["A1", "A2", "B2"])
def test_conjecture_inputs_match_box_enumeration(spec):
    datum = build_root_system(spec)
    guard = cli._DEFAULT_GUARD.get(datum.label, 6)
    for bound in range(4):
        assert cli._conjecture_inputs(datum, bound, guard) == box_inputs(datum, bound, guard)


def test_conjecture_work_bounded_by_guard(capsys, monkeypatch):
    # In A1 the default guard (length 8) already excludes every coset whose
    # translation lies outside [-4, 4], so a wider box adds no input and must
    # not add work either: count the elements the command sorts.
    calls = []

    def counting_key(x):
        calls.append(x)
        return element_sort_key(x)

    monkeypatch.setattr(cli, "element_sort_key", counting_key)
    outputs = {}
    for bound in (4, 100):
        calls.clear()
        code, out, _ = run(capsys, "conjecture", "--type", "A1", "--max-translation", str(bound), "--json")
        assert code == 0
        outputs[bound] = (len(calls), json.loads(out))
    (few, small), (many, wide) = outputs[4], outputs[100]
    assert many <= few
    assert wide == {**small, "max_translation": 100}


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "constant", "--type", "A1", "--x", "zzz", "--y", "id")
    assert code == 2
    error = json.loads(err)
    assert error["error"]["type"] == "ParseError"


def test_validation_error_exit_2(capsys):
    code, _, err = run(capsys, "element", "--type", "A2", "s9 t[-1,-1]")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_guard_rejects_long_elements(capsys):
    code, _, err = run(capsys, "bcoeff", "--type", "A1", "--x", "t[-9]")
    assert code == 2
    assert "max-length" in json.loads(err)["error"]["message"]
    code, _, _ = run(capsys, "bcoeff", "--type", "A1", "--x", "t[-9]", "--max-length", "20")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "--type", "A1", "--max-translation", "1"],
        ["product", "--type", "A1", "--x", "id", "--y", "id"],
    ],
    ids=["conjecture", "product"],
)
def test_negative_guard_rejected(capsys, argv):
    # affine_ball(datum, -1) would still hold the identity
    code, out, err = run(capsys, *argv, "--max-length", "-1")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError" and "--max-length" in error["message"]


def test_recursion_depth_exit_2(capsys):
    # The e kernel walks at most WALK_LIMIT letters, and t[-700] has length
    # 1400: a usage limit, refused before any row is built and reported like
    # one, not a mismatch.
    code, out, err = run(capsys, "ecoeff", "--type", "A1", "--x", "t[-700]", "--max-length", "2000")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error == {
        "type": "WalkLimitError",
        "message": "the e kernel walks at most 1000 letters, and x of length 1400 needs more",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--max-length", "2"],
        ["element", "--type", "A1", "--max-length", "2", "t[5]"],
        ["verify", "--max-length", "2"],
        ["roots", "--root-exponents"],
        ["element", "--type", "A1", "--root-exponents", "s1"],
        ["constant", "--type", "A1", "--x", "t[-1]", "--y", "t[-1]", "--root-exponents"],
        ["verify", "--root-exponents"],
        ["conjecture", "--type", "A1", "--max-translation", "0", "--root-exponents"],
    ],
    ids=[
        "roots-max-length",
        "element-max-length",
        "verify-max-length",
        "roots-root-exponents",
        "element-root-exponents",
        "constant-root-exponents",
        "verify-root-exponents",
        "conjecture-root-exponents",
    ],
)
def test_flags_accepted_only_where_read(capsys, argv):
    # A flag that the command does not read is refused by name, as JSON.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    flag = next(a for a in argv if a in ("--max-length", "--root-exponents"))
    assert error["type"] == "UsageError" and error["message"].startswith(f"unrecognized arguments: {flag}")


def test_unknown_subcommand(capsys):
    # argparse's own errors are reported as JSON on stderr, with exit 2;
    # --help still prints its usage text and exits 0.
    for argv, message in [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["--threads", "2", "roots"], "argument command: invalid choice: '2'"),
        ([], "the following arguments are required: command"),
        (["ecoeff", "--type", "A1"], "the following arguments are required: --x"),
        (["verify", "--suite", "sl4"], "argument --suite: invalid choice: 'sl4'"),
        (["bcoeff", "--x", "t[-1]", "--max-length", "two"], "argument --max-length: invalid int value: 'two'"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["schema_version"] == 1 and error["error"]["type"] == "UsageError"
        assert error["error"]["message"].startswith(message), argv
    for argv in (["--help"], ["roots", "--help"]):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: kschubert") and err == ""


@pytest.mark.parametrize("error", [NonPolynomialError, SingularSystemError, ShapeViolationError])
def test_internal_error_exit_3(capsys, monkeypatch, error):
    def broken(x, y):
        raise error("injected")

    monkeypatch.setattr("kschubert.cli.pontryagin_constants", broken)
    code, out, err = run(
        capsys, "constant", "--type", "A1", "--x", "t[-1]", "--y", "t[-1]", "--json"
    )
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "schema_version": 1,
        "error": {"type": error.__name__, "message": "injected", "kind": "internal"},
    }


def test_engine_division_is_the_exactness_gate(capsys, monkeypatch):
    # One coset row of t_mu y_y off by a monomial: nothing but the engine's
    # final exact division sees it, and the CLI reports that as an internal
    # error.  The skewed row must be one the engine reads for A1 t[-1]^2.
    a1 = build_root_system("A1")
    x = parse_element("t[-1]", a1)
    skewed_at = ((-1,), x)
    real_rows = constants.translation_cosets
    reads = []

    def skewed(mu, y):
        reads.append((mu, y))
        row = dict(real_rows(mu, y))
        if (mu, y) == skewed_at:
            z = next(iter(row))
            row[z] = row[z] + GroupAlgebraElement.monomial((0,))
        return row

    monkeypatch.setattr(constants, "translation_cosets", skewed)
    with pytest.raises(NonPolynomialError):
        pontryagin_constants(x, x)
    assert skewed_at in reads
    code, out, err = run(
        capsys, "constant", "--type", "A1", "--x", "t[-1]", "--y", "t[-1]", "--json"
    )
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "NonPolynomialError" and error["kind"] == "internal"


def test_classical_division_is_the_exactness_gate(capsys, monkeypatch):
    # Localization rows of the classical oracle skewed on their diagonal:
    # a pivot value that e_{w,w} does not divide stops the oracle's exact
    # division, and the CLI reports that as an internal error.
    monkeypatch.setattr(constants, "_finite_localization_row", skewed_diagonal(constants._finite_localization_row))
    code, out, err = run(capsys, "conjecture", "--type", "A1", "--json")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "NonPolynomialError" and error["kind"] == "internal"


# sha256 of the --json stdout of fixed commands.  How the engine computes may
# change; these bytes change only with a deliberate change of results or format.
PINNED_JSON = {
    "ecoeff": (
        ["ecoeff", "--type", "A2", "--x", "t[-1,-1]"],
        "63cdf623534377b7a8ec36d53fff5b643574e480911a43426aa10bf3c26e05aa",
    ),
    "bcoeff": (
        ["bcoeff", "--type", "A2", "--x", "t[-1,-1]"],
        "19b45b5d56d8a2470556596b23db4e79daca77041819ce61383cf79e6ff5cf66",
    ),
    "kclass": (
        ["kclass", "--type", "A2", "--w", "s2*s1 t[-1,-1]"],
        "2487c249bc83db2b2105115038974026923305485cd510129ca5aa57cebdbc7b",
    ),
    "lclass": (
        ["lclass", "--type", "A2", "--w", "s1*s2 t[-1,-1]"],
        "9226f25ee830f0c9110bc2b0bef609515ea0ade05c14ddd200dd206198a3fc68",
    ),
    "constant": (
        ["constant", "--type", "A2", "--x", "s1 t[-1,-1]", "--y", "s2*s1 t[-1,-1]"],
        "800d71e3a1af337b66d4734bdcd0728dcc155adec8a0bc1bb044689443675983",
    ),
    "conjecture": (
        ["conjecture", "--type", "A2", "--max-translation", "1"],
        "47a4f57197c185bdc495fc021c0d2a0e76e429f74511bf913830b9926d56040e",
    ),
    # The A1 fixture data and the classical oracle share one key with equal
    # values, so refusing conflicting data leaves this report as it was.
    "conjecture-A1": (
        ["conjecture", "--type", "A1"],
        "f462d54be43946d52f786337e41eede0b6d284b10b61352011d84aae730062f1",
    ),
    "verify": (
        ["verify", "--suite", "all"],
        "0e549ccecbafc6a3af1344b16218e9943d605860fab64011f30ac4d60af45f54",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_JSON))
def test_json_output_pinned(capsys, name):
    argv, digest = PINNED_JSON[name]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# argv, exit code, stdout and stderr, in full, of every subcommand in human
# and --json output (and --root-exponents where it is taken) on small A1/A2
# inputs, with verify, conjecture and the exit-2 errors.
TRANSCRIPT = json.loads((Path(__file__).parent / "data" / "cli_transcript.json").read_text(encoding="utf-8"))


def test_cli_transcript_replays_exactly(capsys):
    differing = [r["argv"] for r in TRANSCRIPT if run(capsys, *r["argv"]) != (r["exit"], r["stdout"], r["stderr"])]
    assert differing == [] and len(TRANSCRIPT) > 50
