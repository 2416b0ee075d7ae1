"""tools/size_rule.sh, the src/ size rule, run as a Tier-1 test.

The script is the one home of the rules (the line cap, the 99-character limit and
the grep rules); the `src/ size rule` step of .github/workflows/tier1.yml runs it,
and so does this test, so a local run of the suite sees every rule too. Each kind
of rule is also shown to bite on a mutated copy of src/gardner.
"""
import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "size_rule.sh"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def run_size_rule(cwd: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(["bash", str(SCRIPT)], cwd=cwd, capture_output=True, text=True)


def test_the_size_rule_passes():
    done = run_size_rule(ROOT)
    assert done.returncode == 0, f"exit {done.returncode}\n{done.stdout}{done.stderr}"
    assert "src/gardner: " in done.stdout


def test_the_ci_step_runs_the_script():
    step = "      - name: src/ size rule\n        run: bash tools/size_rule.sh\n"
    assert step in WORKFLOW.read_text()


# One mutation per kind of rule: kind -> (module, text appended to it).
MUTATIONS = {
    "line-cap": ("matrix.py", "#\n" * 10),
    "width-limit": ("cli.py", "#" * 100 + "\n"),
    "not-grep": ("linalg.py", "# prev\n"),  # a `! grep ... || exit 1` rule
    "exact-count": ("polytope.py", "# row_vertex(\n"),
    "is-float": ("matrix.py", "# x is float\n"),  # the last rule, which must exit itself too
    "sample-count": ("duality.py", "# max(sample_count\n"),
}


@pytest.mark.parametrize("kind", [None, *MUTATIONS])
def test_each_kind_of_rule_bites(tmp_path, kind):
    # kind None is the control: the unmutated copy passes, so an exit 1 is the mutation's.
    shutil.copytree(ROOT / "src" / "gardner", tmp_path / "src" / "gardner",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if kind is not None:
        module, text = MUTATIONS[kind]
        with open(tmp_path / "src" / "gardner" / module, "a") as f:
            f.write(text)
    done = run_size_rule(tmp_path)
    assert done.returncode == (0 if kind is None else 1), f"{done.stdout}{done.stderr}"
