"""The `src/ size rule` step of .github/workflows/tier1.yml, run as a Tier-1 test.

The workflow stays the only home of the rules (the line cap, the 99-character
limit and the grep rules): this test reads the step's `run: |` block and runs it
with `bash -e` from the repository root, as the CI runner does, so a local run
of the suite sees every rule too.
"""
import pathlib
import subprocess
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def size_rule_script() -> str:
    lines = WORKFLOW.read_text().splitlines()
    step = lines.index("      - name: src/ size rule")
    key = lines[step + 1]
    assert key.strip() == "run: |", key
    indent = len(key) - len(key.lstrip())
    block = []
    for line in lines[step + 2:]:  # a block scalar ends at the first line not indented past its key
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def test_the_size_rule_step_passes():
    script = size_rule_script()
    assert script.startswith("wc -l src/gardner/*.py\n"), script
    done = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, f"exit {done.returncode}\n{done.stdout}{done.stderr}"
    assert "src/gardner: " in done.stdout
