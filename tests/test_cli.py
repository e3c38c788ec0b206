import json

import pytest

from sliceguard import seifert
from sliceguard.cli import main

J2 = "T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_obstruct_json(capsys):
    code, out, _ = run(capsys, "obstruct", J2, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NOT_SLICE"
    assert doc["r"] == 5
    assert len(doc["metabolizers"]) == 2


def test_obstruct_human(capsys):
    code, out, _ = run(capsys, "obstruct", "T(2,3)")
    assert code == 0
    assert "NOT_ALGEBRAICALLY_SLICE" in out


def test_obstruct_inconclusive_exit_code(capsys):
    code, out, _ = run(capsys, "obstruct", J2, "--max-dim", "1")
    assert code == 2


def test_obstruct_verify_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "obstruct", J2, "--json")
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "obstruct", "--verify", str(path))
    assert code == 0
    assert "bit-for-bit" in out2


def test_obstruct_verify_uses_the_budget(tmp_path, capsys):
    # J2 at r = 5 needs a budget of 6 subspaces
    code, out, _ = run(capsys, "obstruct", J2, "--json", "--budget", "6")
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run(capsys, "obstruct", "--verify", str(path), "--budget", "6")
    assert code == 0 and "bit-for-bit" in out
    code, out, err = run(capsys, "obstruct", "--verify", str(path), "--budget", "5")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_obstruct_verify_detects_tampering(tmp_path, capsys):
    code, out, _ = run(capsys, "obstruct", J2, "--json")
    doc = json.loads(out)
    doc["metabolizers"][0]["witness"]["total_jump"] *= 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "obstruct", "--verify", str(path))
    assert code == 1


def test_slice_check(capsys):
    code, out, _ = run(capsys, "slice-check", "T(2,3)")
    assert code == 0 and "NOT_ALGEBRAICALLY_SLICE" in out
    code, out, _ = run(capsys, "slice-check", J2, "--json")
    assert json.loads(out)["verdict"] == "ALGEBRAICALLY_SLICE"


def test_alex(capsys):
    code, out, _ = run(capsys, "alex", "2", "3")
    assert code == 0 and "t^2" in out


def test_talex(capsys):
    code, out, _ = run(capsys, "talex", "2", "3", "1,2")
    assert code == 0 and "t" in out
    code, out, _ = run(capsys, "talex", "2", "3", "0,0", "--surgery", "--json")
    doc = json.loads(out)
    assert doc["variant"] == "surgery"


def test_characters(capsys):
    code, out, _ = run(capsys, "characters", "2", "3", "--json")
    assert json.loads(out)["characters"] == [[0, 0], [1, 2], [2, 1]]


def test_metabolizers(capsys):
    code, out, _ = run(capsys, "metabolizers", "2", "5", "--json")
    assert json.loads(out)["metabolizers"] == [[[1, 1]], [[1, 4]]]


def test_signature(capsys):
    code, out, _ = run(capsys, "signature", "2", "3", "1/2", "--json")
    assert json.loads(out)["signature"] == -2
    code, out, _ = run(capsys, "signature", "2", "3", "--jumps", "--json")
    assert json.loads(out)["jumps"] == {"1/6": -2, "5/6": 2}


def test_homology(capsys):
    code, out, _ = run(capsys, "homology", "3", "2", "3", "--json")
    doc = json.loads(out)
    assert doc["divisors"] == [2, 2]
    assert doc["module"]["deck_action"] == [[1, 1], [1, 0]]


def test_input_errors_exit_1(capsys):
    code, _, err = run(capsys, "obstruct", "T(2,4)")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "signature", "2", "3", "1/6")
    assert code == 1
    code, _, err = run(capsys, "signature", "2", "3")
    assert code == 1


def test_homology_rejects_non_prime_power_degree(capsys):
    code, out, err = run(capsys, "homology", "2", "3", "6")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "prime power" in err


def test_talex_rejects_non_torus_knot(capsys):
    code, out, err = run(capsys, "talex", "2", "4", "1,3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "torus knot" in err


def test_budget_refusal_exit_2(capsys):
    code, out, err = run(capsys, "metabolizers", "3", "5", "--copies", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "budget" in err


def test_internal_check_failure_exit_3(capsys, monkeypatch):
    def failing(*args):
        raise seifert.ConventionError("U A W is not diagonal")

    monkeypatch.setattr(seifert, "branched_cover", failing)
    code, out, err = run(capsys, "homology", "3", "2", "3")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "ConventionError" in err


@pytest.mark.parametrize("argv", [["obstruct", "--budget", "abc"], ["frobnicate"]])
def test_usage_errors_exit_1_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_malformed_precision_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SLICEGUARD_PRECISION_BITS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["signature", "2", "3", "1/2"])
    err = capsys.readouterr().err
    assert exc.value.code == 1 and err.count("\n") == 1 and "precision-bits" in err
    assert run(capsys, "alex", "2", "3")[0] == 0


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obstruct", "--help"])
    assert exc.value.code == 0 and "--precision-bits" in capsys.readouterr().out


def test_precision_bits_parse_and_touch_only_signature(capsys, monkeypatch):
    _, plain, _ = run(capsys, "obstruct", J2, "--json")
    code, out, _ = run(capsys, "obstruct", J2, "--json", "--precision-bits", "9")
    assert code == 0 and out == plain
    monkeypatch.setenv("SLICEGUARD_PRECISION_BITS", "9")
    code, out, _ = run(capsys, "signature", "3", "4", "1/2", "--json")
    assert code == 0 and json.loads(out)["signature"] == -6
