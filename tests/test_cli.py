import json
import os
import resource
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceguard import cli, covers, metabolizers, pipeline, seifert
from sliceguard.cli import main
from sliceguard.expr import parse

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
    code, out, _ = run(capsys, "obstruct", J2, "--budget", "1")
    assert code == 2 and "exceed the budget of 1" in out


def test_obstruct_verify_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "obstruct", J2, "--json")
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "obstruct", "--verify", str(path))
    assert code == 0
    assert "bit-for-bit" in out2


def test_obstruct_verify_uses_the_budget(tmp_path, capsys):
    # J2 at r = 5 needs a budget of 6 subspaces to obstruct, and its
    # document lists the form's 2 invariant metabolizers, which the check's
    # budget bounds
    code, out, _ = run(capsys, "obstruct", J2, "--json", "--budget", "6")
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run(capsys, "obstruct", "--verify", str(path), "--budget", "2")
    assert code == 0 and "bit-for-bit" in out
    code, out, err = run(capsys, "obstruct", "--verify", str(path), "--budget", "1")
    assert code == 2 and out == ""
    assert err == "budget refused: 2 invariant metabolizers exceed the budget of 1\n"


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
    # the module is printed on the model basis x_0, x_1 = t x_0
    code, out, _ = run(capsys, "homology", "3", "2", "3", "--json")
    doc = json.loads(out)
    assert doc["divisors"] == [2, 2]
    assert doc["module"]["deck_action"] == [[0, 1], [1, 1]]
    assert doc["module"]["gram_times_r"] == [[0, 1], [1, 0]]


def _legendre_det(gram, r):
    return pow(int(sympy.Matrix(gram).det()) % r, (r - 1) // 2, r)


def test_homology_5_7_5_finishes():
    # once two tracked-transform Smith forms on 96 and 120 rows, which did
    # not finish; a child process turns a regression into a failure
    done = _child("homology", "5", "7", "5", "--json", timeout=10)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["divisors"] == [7, 7, 7, 7] and doc["order"] == 7**4
    module = doc["module"]
    assert module["r"] == 7 and module["dim"] == 4
    model = covers.model_module(5, 7)
    assert _legendre_det(module["gram_times_r"], 7) == _legendre_det(model.gram, 7)


def test_homology_11_13_11_answers():
    # its 1200-row presentation Y once ran for minutes, and was then
    # refused; the module is the model's, after the 120-row Smith form
    done = _child("homology", "11", "13", "11", "--json", timeout=10)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["divisors"] == [13] * 10 and doc["order"] == 13**10
    assert doc["module"]["r"] == 13 and doc["module"]["dim"] == 10


def test_homology_large_cover_answers():
    # the deck action's order and norm were once checked by 128 products
    # of 127-square matrices, twice (6.5 s); now by doubling, once
    done = _child("homology", "128", "3", "128", "--json", timeout=3)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["divisors"] == [3] * 127 and doc["module"]["dim"] == 127


def test_large_index_refused_in_one_line():
    # the index once reached a trial division up to its square root
    done = _child("obstruct", "T(2,3;2,1000000000000000003) # -T(2,1000000000000000003)",
                  timeout=10)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "below 2**31" in done.stderr


def test_large_p_refused_before_the_module():
    # the budget is checked from its bound, before the O(p^4) module build
    done = _child("obstruct", "T(2003,3;2003,5) # -T(2003,5) # -T(2003,3;2003,7) # T(2003,7)",
                  timeout=5)
    assert done.returncode == 2, done.stderr
    assert ("r=5: at least 5^4008004 half-dimension subspaces exceed the budget "
            "of 2000000") in done.stdout


def test_metabolizers_large_p_refused_before_the_module():
    # the inputs are checked, then the budget, and only then is the module built
    done = _child("metabolizers", "2003", "5", timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("budget refused: at least 5^4008004 half-dimension "
                           "subspaces exceed the budget of 2000000\n")


def test_metabolizers_input_error_before_the_budget():
    done = _child("metabolizers", "10", "5", timeout=10)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: gcd(10, 5) != 1\n"


@pytest.mark.parametrize("text", ["[1]", '{"p": 2}', '"NOT_SLICE"', "null",
                                  '{"input": "T(2,3)", "p": 2.0, "verdict": "NOT_SLICE"}'])
def test_obstruct_verify_malformed_document_one_line(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "obstruct", "--verify", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("verification failed: not a verdict document")


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


@pytest.mark.parametrize("values", ["1,2", "1,4"])
def test_talex_checks_the_entry_count_before_the_sum(capsys, values):
    # 1,2 does not sum to 0 mod 5 and 1,4 does; both are one entry short
    code, out, err = run(capsys, "talex", "3", "5", values)
    assert code == 1 and out == ""
    assert err == "character needs 3 entries\n"


def test_budget_refusal_exit_2(capsys):
    code, out, err = run(capsys, "metabolizers", "3", "5", "--copies", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "budget" in err


@pytest.mark.parametrize("p,r", [("1", "3"), ("4", "2"), ("3", "3"), ("2", "4")])
def test_metabolizers_rejects_bad_cover_parameters(capsys, p, r):
    code, out, err = run(capsys, "metabolizers", p, r)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


# the address space of a child: an input that makes the package grow
# without bound fails with a MemoryError instead of exhausting the host
CHILD_MEMORY_BYTES = 1 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def _child(*argv, timeout):
    """The CLI in a child process under a memory limit, so that a hang or
    an unbounded allocation fails instead of stalling the suite."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "sliceguard.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          preexec_fn=_limit_memory)


# the largest prime the parser takes
LARGE_Q = 2147483629
LARGE_INPUT = f"T(2,{LARGE_Q};2,5) # -T(2,5) # -T(2,{LARGE_Q};2,7) # T(2,7)"


def _one_line_refusal(done, code, needle):
    assert done.returncode == code and done.stdout == "", done.stderr
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert needle in done.stderr


def test_large_companion_index_obstructs_and_verifies(tmp_path):
    # the jump decision once built all (p-1)(q-1) jumps of T(2, q)
    done = _child("obstruct", LARGE_INPUT, "--json", timeout=10)
    assert done.returncode == 0 and done.stderr == ""
    doc = json.loads(done.stdout)
    assert doc["verdict"] == "NOT_SLICE" and len(doc["metabolizers"]) == 2
    # as the jump table gives 3/100090 at q = 10009, also 4 mod 5
    assert {m["witness"]["omega"] for m in doc["metabolizers"]} == {f"3/{10 * LARGE_Q}"}
    path = tmp_path / "cert.json"
    path.write_text(done.stdout)
    done = _child("obstruct", "--verify", str(path), timeout=10)
    assert done.returncode == 0 and "bit-for-bit" in done.stdout and done.stderr == ""


def _large_index_sum(chain: str, rest: str = "") -> str:
    """T(2,chain;2,5) # -T(rest2,5) # -T(2,chain;2,7) # T(rest2,7)."""
    return f"T(2,{chain};2,5) # -T({rest}2,5) # -T(2,{chain};2,7) # T({rest}2,7)"


@pytest.mark.parametrize("text", [
    f"{_large_index_sum('10007')} # {_large_index_sum('10009')}",
    f"{_large_index_sum('1000003')} # {_large_index_sum('1000033')}",
    f"{_large_index_sum(LARGE_Q)} # {_large_index_sum(f'{LARGE_Q};2,3', '2,3;')}",
], ids=["10007-10009", "1000003-1000033", "one-index-at-two-levels"])
def test_large_indices_at_two_levels_obstruct_and_verify(tmp_path, text):
    # the disjointness check once listed the smaller level point by point:
    # 2.8 s for the first pair and over 20 s for the second; the third,
    # whose levels (q, 1) and (q, 2) share q, took 8 s at q = 100003
    done = _child("obstruct", text, "--json", timeout=10)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["verdict"] == "NOT_SLICE"
    path = tmp_path / "cert.json"
    path.write_text(done.stdout)
    done = _child("obstruct", "--verify", str(path), timeout=10)
    assert done.returncode == 0 and "bit-for-bit" in done.stdout and done.stderr == ""


def test_signature_at_a_large_index():
    # T(2, q) jumps by -2 at j/q - 1/2 for q/2 < j < q, so at 1/3 the
    # signature is -2 times the number of j with q/2 < j < 5q/6
    done = _child("signature", "2", str(LARGE_Q), "1/3", "--json", timeout=10)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["signature"] == -2 * (5 * LARGE_Q // 6 - LARGE_Q // 2)


def test_signature_point_with_a_huge_exponent_is_refused_at_once():
    # Fraction("1e-100000000") ran past 20 s building 10**100000000
    done = _child("signature", "3", "4", "1e-100000000", timeout=10)
    _one_line_refusal(done, 1, "error: '1e-100000000' is not a rational point")


def test_homology_large_rank_answers():
    # d = 3000: a d x d Smith form once ran for seconds growing with q, and
    # was then refused; the group is read off gcd(2, 3) and gcd(3001, 3)
    done = _child("homology", "2", "3001", "3", timeout=10)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == "H_1 of the 3-fold branched cover of T(2,3001): 0\n"


@pytest.mark.parametrize("argv,divisors", [
    (("homology", "5", "7", "25", "--json"), [7] * 4),
    (("homology", "8", "9", "16", "--json"), [9] * 7),
    (("homology", "2", "3", "1000000007", "--json"), []),
], ids=["5-7-25", "8-9-16", "2-3-1000000007"])
def test_homology_beyond_the_smith_form_answers(argv, divisors):
    # the Smith forms of d = 24 and d = 56 ran past 100 s
    done = _child(*argv, timeout=10)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["divisors"] == divisors


@pytest.mark.parametrize("argv,needle", [
    (("homology", "2", "3", "2305843009213693951"),
     "error: argument n: expected an integer below 2**31 in size"),
    (("metabolizers", "2", "2305843009213693951"),
     "error: argument r: expected an integer below 2**31 in size"),
    (("signature", "1000003", "1000033", "1/3"),
     "budget refused: the signature of T(1000003,1000033) is a sum over its smaller "
     "index 1000003, over the listing limit of 100000"),
], ids=["homology", "metabolizers", "signature"])
def test_large_positional_inputs_refused_in_one_line(argv, needle):
    # the first two ran past 20 s in a trial division, the last took 6.8 s
    done = _child(*argv, timeout=10)
    _one_line_refusal(done, 1 if needle.startswith("error") else 2, needle)


@pytest.mark.parametrize("argv", [("2", "503", "1,502"), ("32", "3", "1," * 31 + "2")],
                         ids=["large-q", "large-p"])
def test_talex_large_knot_refused(argv):
    # these took 11 s and 18 s
    done = _child("talex", *argv, timeout=10)
    _one_line_refusal(done, 2, "budget refused: talex takes p <= 12 and pq <= 512")


@pytest.mark.parametrize("argv,needle", [
    (("alex", "2", str(LARGE_Q)),
     f"the Alexander polynomial of T(2,{LARGE_Q}) has degree {LARGE_Q - 1}"),
    (("signature", "2", str(LARGE_Q), "--jumps", "--json"),
     f"T(2,{LARGE_Q}) has {LARGE_Q - 1} signature jumps"),
    (("characters", "13", "101"), "the 13-fold cover module over Z_101 has 101^12 characters"),
    (("characters", "100000001", "3"),
     "the 100000001-fold cover module over Z_3 has 3^100000000 characters"),
    (("homology", "1024", "3", "1024"),
     "H_1 of the 1024-fold cover of T(1024,3) lists 2094081 entries"),
    (("homology", "3", "1048576", "1048576"),
     "H_1 of the 1048576-fold cover of T(3,1048576) lists 1048575 entries"),
], ids=["alex", "signature-jumps", "characters", "characters-large-p", "homology-module",
        "homology-divisors"])
def test_long_listing_refused_in_one_line(argv, needle):
    # the first died with a MemoryError traceback, the next two ran past 10 s
    done = _child(*argv, timeout=10)
    _one_line_refusal(done, 2, f"budget refused: {needle}, over the listing limit of 100000")


def test_listing_at_the_limit_is_printed(capsys):
    code, out, _ = run(capsys, "characters", "2", "100000", "--json")
    assert code == 0 and len(json.loads(out)["characters"]) == cli.MAX_LISTED == 100_000


@st.composite
def _large_index_inputs(draw):
    """Algebraically slice T(X;p,r1) # -T(Y;p,r1) # -T(X;p,r2) # T(Y;p,r2),
    where Y drops the first companion of X; X holds one index up to the
    parser's bound, alone or before or after a small one.  Or two such
    sums: one for each of two coprime large indices, which sit at
    different levels, or a second one that puts the same large index at
    another level."""
    p = draw(st.sampled_from([2, 3, 4, 8, 9]))
    r1, r2 = draw(st.lists(st.sampled_from([5, 7, 11, 13]), min_size=2, max_size=2,
                           unique=True).filter(lambda rs: all(r % p for r in rs)))
    q = draw(st.integers(2**20, 2**31 - 1).filter(
        lambda q: gcd(q, p * r1 * r2) == 1))
    small = draw(st.sampled_from([3, 5, 7, 9, 11, 13, 17]).filter(
        lambda c: gcd(c, p * r1 * r2) == 1))
    chains = [draw(st.sampled_from([[q], [q, small], [small, q]]))]
    second = draw(st.sampled_from(["none", "other index", "same index"]))
    if second == "other index":
        chains.append([draw(st.integers(2**20, 2**31 - 1).filter(
            lambda q2: gcd(q2, p * r1 * r2 * q) == 1))])
    elif second == "same index":
        chains.append([q] if chains[0] == [q, small] else [q, small])
    terms = []
    for chain in chains:
        X = ";".join(f"{p},{c}" for c in chain)
        Y = "".join(f"{p},{c};" for c in chain[1:])
        terms.append(f"T({X};{p},{r1}) # -T({Y}{p},{r1}) # -T({X};{p},{r2}) # T({Y}{p},{r2})")
    return " # ".join(terms)


@given(_large_index_inputs())
@settings(max_examples=6, deadline=None)
def test_large_index_inputs_decide_in_bounded_time(tmp_path_factory, text):
    done = _child("obstruct", text, "--json", timeout=10)
    assert done.returncode in (0, 2) and done.stderr == "", done.stderr
    doc = json.loads(done.stdout)
    assert doc["verdict"] == ("INCONCLUSIVE" if done.returncode else "NOT_SLICE")
    if doc["verdict"] == "NOT_SLICE":
        path = tmp_path_factory.mktemp("large") / "cert.json"
        path.write_text(done.stdout)
        done = _child("obstruct", "--verify", str(path), timeout=10)
        assert done.returncode == 0 and done.stderr == ""


def test_closed_stdout_pipe_exits_141_silently():
    # the reader end is closed before the child starts, so its first write
    # fails: that is no input error, and nothing goes to stderr
    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "sliceguard.cli", "alex", "13", "17"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=30, env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_verify_mutated_document_fails_in_one_line(tmp_path):
    # a nested entry of the wrong type: one stderr line, exit 1, no traceback
    doc = json.loads(pipeline.obstruct(parse(J2)).to_json())
    doc["metabolizers"][0]["character"]["a"] = [["x", None]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    done = _child("obstruct", "--verify", str(path), timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith("verification failed: ")


def test_p5_budget_refusal_does_not_hang():
    # a regression to the hanging Smith form of the T(5, 7) cover fails
    done = _child("metabolizers", "5", "7", timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "budget" in done.stderr


LEAVES_MPMATH_UNLOADED = """
import json, sys
import sliceguard, sliceguard.cli
from sliceguard import expr, pipeline, twisted
from sliceguard.covers import Character
doc = json.loads(pipeline.obstruct(expr.parse(sys.argv[1])).to_json())
assert doc["verdict"] == "NOT_SLICE"
pipeline.verify_verdict(doc)
twisted.twisted_alex_surgery(3, 5, Character(5, (1, 2, 2)))
assert "mpmath" not in sys.modules, "mpmath was imported"
"""


def test_verdict_path_does_not_import_mpmath():
    # only the interval routines that certify unit-circle roots load it
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", LEAVES_MPMATH_UNLOADED, J2],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr


def test_internal_check_failure_exit_3(capsys, monkeypatch):
    def failing(*args):
        raise covers.ConventionError("U A W is not diagonal")

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


@pytest.mark.parametrize("argv,needle", [
    (["characters", "2", "-3"], "modulus"),
    (["characters", "0", "5"], "cover degree"),
    (["metabolizers", "3", "5", "--copies", "-1"], "--copies"),
    (["metabolizers", "3", "5", "--budget", "-1"], "--budget"),
    (["obstruct", J2, "--budget", "-1"], "--budget"),
    (["obstruct", J2, "--max-r", "-1"], "--max-r"),  # the option is gone
    (["obstruct", J2, "--max-dim", "-1"], "--max-dim"),  # the option is gone
    (["signature", "2", "3", "1/0"], "rational point"),
    (["obstruct", J2, "--r", "-5"], "--r"),
    (["obstruct", J2, "--r", "4"], "--r"),
    (["obstruct", J2, "--r", "1000000000000000003"], "--r"),  # prime, but no trial division
    # Fraction built 10**100000000 for the first, and refused the second
    # only after parsing it, with Python's integer-conversion limit
    (["signature", "3", "4", "1e-100000000"], "'1e-100000000' is not a rational point"),
    (["signature", "3", "4", "1e-1000000"], "'1e-1000000' is not a rational point"),
    (["signature", "3", "4", "abc"], "'abc' is not a rational point"),
    (["signature", "3", "4", "0.5"], "'0.5' is not a rational point"),
    (["signature", "3", "4", "2147483648/3"], "'2147483648/3' is not a rational point"),
    (["talex", "3", "5", "a,b,c"],
     "character values must be comma-separated integers, got 'a,b,c'"),
    (["talex", "3", "5", ""], "character values must be comma-separated integers, got ''"),
    # every positional integer is below 2**31 in size, as in an expression
    (["alex", "2", "2147483648"], "argument q: expected an integer below 2**31 in size"),
    (["talex", "2147483648", "3", "1,2"], "argument p: expected an integer below 2**31"),
    (["characters", "2", "-2147483648"], "argument r: expected an integer below 2**31"),
    (["metabolizers", "2", "2147483659"], "argument r: expected an integer below 2**31"),
    (["signature", "2", str(2**61 - 1), "1/3"], "argument q: expected an integer below 2**31"),
    (["homology", "2", "3", "two"], "argument n: expected an integer below 2**31"),
])
def test_bad_bounds_and_points_are_input_errors(capsys, monkeypatch, argv, needle):
    # each is refused before any work, as one line with exit 1
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a malformed input")

    for name in ("obstruct", "verify_verdict"):
        monkeypatch.setattr(pipeline, name, no_work)
    monkeypatch.setattr(metabolizers, "enumerate_invariant_metabolizers", no_work)
    monkeypatch.setattr(seifert, "lt_signature", no_work)
    monkeypatch.setattr(cli, "twisted_alex_exterior", no_work)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert needle in captured.err


@pytest.mark.parametrize("argv", [["obstruct", J2], ["signature", "3", "4", "1/2"]],
                         ids=["obstruct", "signature"])
def test_precision_bits_is_gone(capsys, monkeypatch, argv):
    # verdicts and signatures are exact: the option is a usage error, and
    # the environment variable it once read changes nothing
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json", "--precision-bits", "9"])
    err = capsys.readouterr().err
    assert exc.value.code == 1 and err.count("\n") == 1 and "--precision-bits" in err
    _, plain, _ = run(capsys, *argv, "--json")
    monkeypatch.setenv("SLICEGUARD_PRECISION_BITS", "abc")
    assert run(capsys, *argv, "--json") == (0, plain, "")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obstruct", "--help"])
    assert exc.value.code == 0 and "--verify" in capsys.readouterr().out


def test_obstruct_verify_never_enumerates(tmp_path, capsys, monkeypatch):
    # --verify checks the recorded bases against the closed-form count and
    # certifies each; it does not walk the metabolizers again
    code, out, _ = run(capsys, "obstruct", J2, "--json")
    path = tmp_path / "cert.json"
    path.write_text(out)
    calls = []
    enumerate_invariant_metabolizers = metabolizers.enumerate_invariant_metabolizers

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_invariant_metabolizers(*args, **kwargs)

    monkeypatch.setattr(metabolizers, "enumerate_invariant_metabolizers", counted)
    code, out, _ = run(capsys, "obstruct", "--verify", str(path))
    assert code == 0 and "bit-for-bit" in out
    assert calls == []
