import json

import pytest

from kschubert.cli import main


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


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["--threads", "2", "roots"]) == 2
