"""The field rules of `tests/equivalence.py --compare`, on small synthetic
fingerprints, and the package's fingerprint against the committed one."""

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

import equivalence

HERE = pathlib.Path(__file__).resolve().parent

HEADER = ("case,solver,n_runs,n_errors,mean_iterations,mean_error,"
          "mean_objective,max_lyapunov_violation")


def fingerprint():
    """A fingerprint with every section equivalence.main prints, one or two
    items each."""
    return {
        "env": {"OPENBLAS_NUM_THREADS": None, "openblas_threads": 2},
        "sweep_csvs": {"least-squares": [
            HEADER, "1,gppa,3,0,2668.6666666666665,0.0017407626847568841,"
                    "0.011716773369951415,nan"]},
        "opf_model": {"E": "9f2c", "network": "NetworkData(gamma=1.0)"},
        "opf_run": {
            "starts": [["gppa", 0, "0x1.ebb209df089b1p+0", 5, "0x0.0p+0"]],
            "best_x": "aac5", "placement": [3, 14],
            "rate_r2": "0x1.80d6882e38db4p-1", "plan_json": "{}",
        },
        "check": {"exit": 0, "stdout": [
            "network load                     PASS  ",
            "feasible point penetration       PASS  slack 3.99e-17",
            "2 checks, 0 failures"]},
        "cs_run": {"exit": 0, "stdout": [
            HEADER, "1,proposed,1,0,324,0.10160815945934988,0.92406465868507315,0"]},
        "opf_run_stdout": {"exit": 0, "stdout": [
            "proposed   mean obj 2.019680  best obj 1.920685  mean iters 4.3"]},
        "gen": {"--case 1": {"exit": 0, "files": {"b.csv": "b87a"}}},
        "solves": [{
            "cell": ["least-squares", 1, 0, "gppa"], "status": "converged",
            "iterations": 335, "objective": "0x1.d91f00c0e23aep-1",
            "norm_x": "0x1.f45b785315753p+1", "support": "3b13", "x": "6888",
            "trace": "5a17",
        }],
    }


def changed(edit):
    """fingerprint() with edit applied to a copy."""
    doc = copy.deepcopy(fingerprint())
    edit(doc)
    return doc


def times(value, factor):
    """A hex float string times factor, as a hex float string."""
    return (float.fromhex(value) * factor).hex()


def test_identical_fingerprints_pass_with_nothing_moved():
    cmp = equivalence.compare(fingerprint(), fingerprint())
    assert sum(cmp.moved.values()) == 0 and cmp.added == []
    assert cmp.seen["solves[].x"] == 1 and cmp.seen["check.stdout detail"] == 2


def rounding_moves(doc):
    """What moved between 1 and 2 BLAS threads: hashes, the plan, Lyapunov
    violations, check details, solver numbers on stdout and env, plus
    objectives and rate_r2 within 1e-12."""
    doc["env"]["openblas_threads"] = 1
    doc["sweep_csvs"]["least-squares"][1] = (
        "1,gppa,3,0,2668.6666666666665,0.0017407626847568843,"
        "0.011716773369951417,nan")
    start = doc["opf_run"]["starts"][0]
    start[2], start[4] = times(start[2], 1 + 4.4e-16), "0x1.0000000000000p-49"
    doc["opf_run"].update(best_x="e12c", plan_json="{ }",
                          rate_r2=times(doc["opf_run"]["rate_r2"], 1 + 3.3e-13))
    doc["check"]["stdout"][1] = "feasible point penetration       PASS  slack 5.38e-17"
    doc["opf_run_stdout"]["stdout"][0] = "proposed   mean obj 2.019681"
    solve = doc["solves"][0]
    solve.update(x="e1e1", trace="7b7b",
                 objective=times(solve["objective"], 1 - 4e-16),
                 norm_x=times(solve["norm_x"], 1 + 1e-15))


def test_rounding_moves_are_counted_not_failed():
    cmp = equivalence.compare(fingerprint(), changed(rounding_moves))
    assert {path: n for path, n in cmp.moved.items() if n} == {
        "env": 1, "opf_run.starts[] lyapunov_violation": 1, "opf_run.best_x": 1,
        "opf_run.plan_json": 1, "check.stdout detail": 1,
        "opf_run_stdout.stdout": 1, "solves[].x": 1, "solves[].trace": 1,
    }


def edit_csv_cell(section, column, value):
    """An edit that sets column of the first CSV row of section, cs_run's
    stdout or the least-squares sweep CSV, to value."""
    def edit(doc):
        lines = (doc[section]["stdout"] if section == "cs_run"
                 else doc[section]["least-squares"])
        cells = lines[1].split(",")
        cells[HEADER.split(",").index(column)] = value
        lines[1] = ",".join(cells)
    return edit


def set_item(*path_and_value):
    """An edit that sets the item at path to value, or to value(item) when
    value is callable."""
    *path, key, value = path_and_value

    def edit(doc):
        node = doc
        for step in path:
            node = node[step]
        node[key] = value(node[key]) if callable(value) else value
    return edit


SOLVE = "solves[0] (least-squares 1 0 gppa)"

#: (edit, the start of the Miss message)
MISSES = {
    "one more iteration": (set_item("solves", 0, "iterations", 336),
                           "%s.iterations: 335 != 336" % SOLVE),
    "objective 1e-10 relative": (
        set_item("solves", 0, "objective", lambda v: times(v, 1 + 1e-10)),
        "%s.objective: '0x1.d91f00c0e23aep-1' and " % SOLVE),
    "zero pattern": (set_item("solves", 0, "support", "0000"),
                     "%s.support: '3b13' != '0000'" % SOLVE),
    "status": (set_item("solves", 0, "status", "max-iter"), "%s.status" % SOLVE),
    "norm_x": (set_item("solves", 0, "norm_x", lambda v: times(v, 1 + 1e-11)),
               "%s.norm_x" % SOLVE),
    "objective inf": (set_item("solves", 0, "objective", "inf"),
                      "%s.objective" % SOLVE),
    "csv mean_iterations": (
        edit_csv_cell("sweep_csvs", "mean_iterations", "2669"),
        "sweep_csvs.least-squares line 1 mean_iterations"),
    "csv n_errors": (edit_csv_cell("cs_run", "n_errors", "1"),
                     "cs_run.stdout line 1 n_errors: '0' != '1'"),
    "csv mean_objective": (
        edit_csv_cell("cs_run", "mean_objective", "0.9240646587774796"),
        "cs_run.stdout line 1 mean_objective"),
    "csv mean_error": (
        edit_csv_cell("sweep_csvs", "mean_error", "0.0017407626847668841"),
        "sweep_csvs.least-squares line 1 mean_error"),
    "check fails": (
        set_item("check", "stdout", 0, "network load                     FAIL  "),
        "check.stdout[0]: ('network load', 'PASS') != ('network load', 'FAIL')"),
    "check summary": (set_item("check", "stdout", 2, "2 checks, 1 failures"),
                      "check.stdout[2]"),
    "exit code": (set_item("opf_run_stdout", "exit", 1),
                  "opf_run_stdout.exit: 0 != 1"),
    "placement": (set_item("opf_run", "placement", [7, 9]), "opf_run.placement"),
    "rate_r2": (set_item("opf_run", "rate_r2", lambda v: times(v, 1 + 1e-11)),
                "opf_run.rate_r2"),
    "start iterations": (set_item("opf_run", "starts", 0, 3, 6),
                         "opf_run.starts[0] iterations: 5 != 6"),
    "start objective": (
        set_item("opf_run", "starts", 0, 2, lambda v: times(v, 1 + 1e-10)),
        "opf_run.starts[0] objective"),
    "start id": (set_item("opf_run", "starts", 0, 1, 1),
                 "opf_run.starts[0] solver and start"),
    "model": (set_item("opf_model", "E", "0000"), "opf_model: "),
    "gen bundle": (set_item("gen", "--case 1", "files", "b.csv", "0000"), "gen: "),
    "a solve less": (set_item("solves", lambda v: v[:0]), "solves length: 1 != 0"),
    "a stdout line less": (set_item("opf_run_stdout", "stdout", lambda v: v[:0]),
                           "opf_run_stdout.stdout line count: 1 != 0"),
}


@pytest.mark.parametrize("name", sorted(MISSES))
def test_a_miss_fails_and_is_named(name):
    edit, message = MISSES[name]
    with pytest.raises(equivalence.Miss) as err:
        equivalence.compare(fingerprint(), changed(edit))
    assert str(err.value).startswith(message), str(err.value)


def test_nan_equals_nan_within_the_tolerance_rule():
    doc = changed(set_item("opf_run", "rate_r2", "nan"))
    equivalence.compare(doc, copy.deepcopy(doc))
    with pytest.raises(equivalence.Miss, match="opf_run.rate_r2"):
        equivalence.compare(fingerprint(), doc)


def test_fields_missing_added_or_without_a_rule():
    def drop(doc):
        del doc["solves"][0]["support"]

    def add(doc):
        doc["solves"][0]["residual"] = "0x1p-30"

    with pytest.raises(equivalence.Miss, match=r"support' missing from the second"):
        equivalence.compare(fingerprint(), changed(drop))
    cmp = equivalence.compare(fingerprint(), changed(add))
    assert cmp.added == [SOLVE + ".residual"]
    with pytest.raises(equivalence.Miss, match=r"\.residual: no rule for this field"):
        equivalence.compare(changed(add), changed(add))

    def add_column(doc):
        lines = doc["cs_run"]["stdout"]
        lines[:] = [lines[0] + ",extra", lines[1] + ",0"]

    with pytest.raises(equivalence.Miss, match="no rule for column 'extra'"):
        equivalence.compare(changed(add_column), changed(add_column))


def test_env_moves_name_each_key_with_both_values():
    def move_env(doc):
        doc["env"].update(OPENBLAS_NUM_THREADS="1", openblas_threads=1, cpus=4)

    cmp = equivalence.compare(fingerprint(), changed(move_env))
    assert cmp.moved["env"] == 1 and cmp.seen["env"] == 1
    assert cmp.env_moves == ["env.OPENBLAS_NUM_THREADS: None != '1'",
                             "env.cpus: None != 4", "env.openblas_threads: 2 != 1"]
    assert equivalence.compare(fingerprint(), fingerprint()).env_moves == []


def test_run_compare_exits_1_on_a_miss(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(fingerprint()))
    b.write_text(json.dumps(changed(rounding_moves)))
    equivalence.run_compare(a, b)
    out = capsys.readouterr().out
    assert out.startswith("equivalent: exact fields equal, numbers within 1e-12")
    assert "moved 1 of 1: solves[].x" in out
    assert "moved 1 of 1: env\n" in out and "env.openblas_threads: 2 != 1\n" in out
    b.write_text(json.dumps(changed(MISSES["one more iteration"][0])))
    with pytest.raises(SystemExit) as err:
        equivalence.run_compare(a, b)
    # sys.exit with a message prints it to stderr and exits with status 1
    assert err.value.code == "not equivalent: %s" % MISSES["one more iteration"][1]


def test_fingerprint_matches_the_committed_one(tmp_path):
    # fingerprint.json was made at 2 OpenBLAS threads, and the rules hold across
    # thread counts; a change that moves a field beyond its rule re-records it
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    fresh = tmp_path / "fingerprint.json"
    with open(fresh, "w") as fh:
        subprocess.run([sys.executable, str(HERE / "equivalence.py")],
                       env=env, stdout=fh, check=True)
    run = subprocess.run([sys.executable, str(HERE / "equivalence.py"), "--compare",
                          str(HERE / "fingerprint.json"), str(fresh)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
