"""tools/series_report.py on the test corpus: how each family's sums end."""

import importlib.util
from pathlib import Path

from yring import ring

TOOL = Path(__file__).resolve().parent.parent / "tools" / "series_report.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("series_report", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_26_endings(capsys):
    doubling = ring._series_doubling
    tool = load_tool()
    assert tool.main(["--seed", "26"]) == 0
    assert ring._series_doubling is doubling  # the recorder is taken out again
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("solve_series on the seed-26 corpus at tol 1e-12")
    rows = {cells[0]: cells[1:] for cells in ([c.strip() for c in line.strip("|").split("|")] for line in lines[4:])}
    assert len(rows) == 6
    for family, (phase1, from32, from64, errors, terms, worst) in rows.items():
        assert int(phase1) + int(from32) + int(from64) + int(errors) == 240, family
        assert int(terms) > 0 and float(worst) <= 2e-12, family
    # the forecast hands most slow sums off at 32 (826 of 1440); seed 26 also draws sums that raise (8)
    assert sum(int(cells[1]) for cells in rows.values()) > 700
    assert sum(int(cells[3]) for cells in rows.values()) > 0
