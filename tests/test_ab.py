import pathlib
import subprocess
import sys

AB = pathlib.Path(__file__).resolve().parent / "ab.py"


def test_ab_script_against_head_runs_and_finds_equal_outputs():
    # smoke run of the A/B script, which no other test imports: the last
    # commit against the working tree on the smallest case, in its own
    # process since the script puts a second package tree on sys.path
    run = subprocess.run([sys.executable, str(AB), "HEAD", "--cases", "least-squares:1"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "sign test p = " in run.stdout
    assert run.stdout.splitlines()[-1] == (
        "x bytes, status and iterations equal on all 12 solves")
