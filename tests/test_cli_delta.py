"""tools/cli_delta.py on two small output trees: which files, lines and digits moved."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_delta.py"


def write_tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def delta(base: Path, change: Path) -> list[str]:
    run = subprocess.run([sys.executable, str(TOOL), str(base), str(change)], capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == ""
    return run.stdout.splitlines()


def test_digits_that_move(tmp_path):
    base = write_tree(tmp_path / "base", {
        "ring/sweep.stdout": "k,abs2_A\n0.5,0.25\n1.5,0.75\n",
        "ring/sweep.stderr": "",
        "ring/sweep.exit": "0\n",
        "ring/check.stdout": "ok\n",
    })
    change = write_tree(tmp_path / "change", {
        "ring/sweep.stdout": "k,abs2_A\n0.5,0.25000000000000006\n1.5,0.75\n",
        "ring/sweep.stderr": "",
        "ring/sweep.exit": "0\n",
        "ring/check.stdout": "ok\n",
    })
    lines = delta(base, change)
    rows = [line for line in lines if line.startswith("| ring/")]
    assert rows == ["| ring/sweep.stdout | 1 of 3 | same | 5.55e-17 | 2.22e-16 |"]
    assert lines[-3:] == ["- line count: the same in every file", "- exit code: the same in every file",
                          "- stderr: the same in every file"]


def test_line_count_exit_code_and_stderr(tmp_path):
    base = write_tree(tmp_path / "base", {"a.stdout": "1\n2\n", "a.exit": "0\n", "a.stderr": ""})
    change = write_tree(tmp_path / "change", {"a.stdout": "1\n", "a.exit": "1\n", "a.stderr": "Error: no\n",
                                              "b.stdout": "new\n"})
    lines = delta(base, change)
    assert "| a.stdout | 1 of 2 | 2 -> 1 | 0 | 0 |" in lines
    assert "| a.exit | 1 of 1 | same | 1 | 1 |" in lines
    assert "| a.stderr | 1 of 1 | 0 -> 1 | 0 | 0 |" in lines
    assert "| b.stdout | only in change | | | |" in lines
    assert lines[-3:] == ["- line count: differs in a.stderr, a.stdout, b.stdout", "- exit code: differs in a.exit",
                          "- stderr: differs in a.stderr"]


def test_equal_trees(tmp_path):
    files = {"a.stdout": "k* = 3.14\n"}
    assert delta(write_tree(tmp_path / "base", files), write_tree(tmp_path / "change", files)) == ["no file differs"]
