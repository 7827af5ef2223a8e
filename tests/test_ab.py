import json
import pathlib
import subprocess
import sys

from dcprox import bench

AB = pathlib.Path(__file__).resolve().parent / "ab.py"
ROOT = AB.parents[1]


def test_ab_script_against_head_runs_and_finds_equal_outputs():
    # smoke run of the A/B script, which no other test imports: a copy of
    # the working tree's own package against the working tree on the
    # smallest case, so it needs no git history and no committed state; in
    # its own process since the script puts a second package tree on sys.path
    run = subprocess.run([sys.executable, str(AB), str(ROOT), "--cases", "least-squares:1"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "sign test p = " in run.stdout
    assert run.stdout.splitlines()[-2] == (
        "x bytes, status and iterations equal on all 12 solves")
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["cases"] == ["least-squares:1"] and out["seeds"] == [0, 1, 2, 3]
    assert [(s["seed"], s["solver"]) for s in out["solves"]] == [
        (seed, solver) for seed in range(4) for solver in bench.SOLVERS]
    assert all(s["ratio"] > 0 for s in out["solves"])
    assert {k: q["n"] for k, q in out["ratio"].items()} == dict.fromkeys(bench.SOLVERS, 4) | {
        "all": 12}
    assert sum(out["wins"].values()) + out["ties"] == 12
    assert 0 < out["sign_test_p"] <= 1
    assert out["outputs_equal"] and out["mismatches"] == []
    assert out["environment"]["numpy"] and "openblas_threads" in out["environment"]


def test_ab_script_names_the_case_form_for_a_malformed_case():
    run = subprocess.run([sys.executable, str(AB), str(ROOT), "--cases", "lorentzian5"],
                         capture_output=True, text=True)
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert "argument --cases: 'lorentzian5' is not LOSS:CASE" in run.stderr
