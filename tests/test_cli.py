import copy
import hashlib
import itertools
import json

import pytest

from kschubert import cli, constants
from kschubert.cli import main
from kschubert.constants import SingularSystemError, element_sort_key, pontryagin_constants
from kschubert.nilhecke import ShapeViolationError
from kschubert.ring import GroupAlgebraElement, NonPolynomialError
from kschubert.rootsys import build_root_system
from kschubert.weyl import coset_min, length, parse_element, translation


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
    # One atom of the first sl2 product changed from e^{-a1} to e^{-2a1}.
    real_load = constants._load_fixture

    def corrupted(name):
        data = copy.deepcopy(real_load(name))
        square = next(i for i in data["identities"] if i["name"] == "square-g1")
        assert square["entries"]["t[-1]"] == [{"e": [-1]}]
        square["entries"]["t[-1]"] = [{"e": [-2]}]
        return data

    monkeypatch.setattr(constants, "_load_fixture", corrupted)
    code, out, _ = run(capsys, "verify", "--suite", "sl2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["failed"] == 1
    failing = [r for r in payload["records"] if not r["ok"]]
    assert failing == [
        {"identity": "square-g1", "ok": False, "detail": "t[-1]: expected e^{-2a1}, got e^{-a1}"}
    ]
    assert all(r["detail"] == "" for r in payload["records"] if r["ok"])
    assert len(payload["records"]) == payload["total"] > 1


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
    # Past the interpreter's recursion limit the y-expansion kernel cannot
    # run; that is a usage limit, reported like one, not a mismatch.
    code, out, err = run(capsys, "ecoeff", "--type", "A1", "--x", "t[-700]", "--max-length", "2000")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "RecursionError" and "--max-length" in error["hint"]


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
    assert main(argv) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["--threads", "2", "roots"]) == 2


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
    skewed_at = (translation(a1, (-1,)), x)
    real_e_cosets = constants.e_cosets
    reads = []

    def skewed(t, y):
        reads.append((t, y))
        row = dict(real_e_cosets(t, y))
        if (t, y) == skewed_at:
            z = next(iter(row))
            row[z] = row[z] + GroupAlgebraElement.monomial((0,))
        return row

    monkeypatch.setattr(constants, "e_cosets", skewed)
    with pytest.raises(NonPolynomialError):
        pontryagin_constants(x, x)
    assert skewed_at in reads
    code, out, err = run(
        capsys, "constant", "--type", "A1", "--x", "t[-1]", "--y", "t[-1]", "--json"
    )
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
