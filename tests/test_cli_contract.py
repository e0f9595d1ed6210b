"""The command line's contract on the shipped configs and on rings derived from them.

Each command runs in process through `cli.main`, its streams captured.  A
command that succeeds here writes nothing to stderr: no warning, and no numpy
warning leaking from the point route or from the grid kernel, which divides
by det entry by entry on singular rows (any warning fails a test here, as it
would have been written to stderr).  The installed `yring` entry point itself
is left to CI, which runs `yring --help` and one `yring check`.
"""

import json
import math
from pathlib import Path

import pytest

from yring.cli import main

pytestmark = pytest.mark.filterwarnings("error")

PI = math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))


def shipped(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def derived_configs() -> dict[str, dict]:
    """Rings built from the shipped configs, by name.

    general_symmetric is symmetric_buttiker written as General(right=left);
    generic_symmetric is a symmetric ring whose node is not scale invariant;
    the decoupled rings have U = -I (symmetric_buttiker) and U = I
    (antisymmetric_generic), so that every wire decouples;
    decoupled_exterior_antisymmetric has U = diag(1, 1, -1), so that the
    exterior wire alone decouples;
    weakly_coupled_symmetric couples its exterior wire through Euler angles
    beta = delta = 3e-6, so 1 - |h11| is 3.6e-11: narrow lines, yet no
    decoupling; weakly_coupled_antisymmetric couples it through beta and
    delta near 3e-7, and the midpoints between its lines n pi/dxi read
    degenerate; near_scale_invariant_antisymmetric moves each eigenphase of
    antisymmetric_generic by 9e-10, so its lines are scanned, not enumerated.
    """
    buttiker, generic = shipped("symmetric_buttiker"), shipped("antisymmetric_generic")
    configs = {"general_symmetric": {**buttiker, "ring": {**buttiker["ring"], "mode": "general", "right": "splitter"}}}
    weak = {"theta": ["pi:0", "pi:1", "pi:1"], "alpha": 0.4, "beta": 3e-6, "gamma": 1.1, "delta": 3e-6, "L0": 1.0}
    configs["weakly_coupled_symmetric"] = {**buttiker, "junctions": {"splitter": weak}}
    weak = {"theta": ["pi:1", "pi:1", "pi:0"], "alpha": 1.154102727573376, "beta": 2.2532320602031274e-07,
            "gamma": 0.6806021899938822, "delta": 3.4079928021741453e-07, "a": 5.331975107684806,
            "b": 4.394072358587615, "L0": 1.0}
    configs["weakly_coupled_antisymmetric"] = {**generic, "junctions": {"node": weak},
                                               "ring": {**generic["ring"], "xi1": 0.981634649231924}}
    for name, doc, node, theta in (("generic_symmetric", buttiker, "splitter", [0.9, 2.4, 4.1]),
                                   ("decoupled_symmetric_buttiker", buttiker, "splitter", ["pi:1"] * 3),
                                   ("decoupled_antisymmetric_generic", generic, "node", ["pi:0"] * 3)):
        junctions = {**doc["junctions"], node: {**doc["junctions"][node], "theta": theta}}
        configs[name] = {**doc, "junctions": junctions}
    near = {**generic["junctions"]["node"], "theta": [PI + 9e-10, 9e-10, PI + 9e-10]}
    configs["near_scale_invariant_antisymmetric"] = {**generic, "junctions": {"node": near}}
    configs["decoupled_exterior_antisymmetric"] = {**generic, "junctions": {"node": {"theta": ["pi:0", "pi:0", "pi:1"]}}}
    return configs


def config_path(name: str, tmp_path: Path) -> str:
    """The path of a shipped config, or of a derived one written under tmp_path."""
    if (CONFIG_DIR / f"{name}.json").exists():
        return str(CONFIG_DIR / f"{name}.json")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(derived_configs()[name]))
    return str(path)


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one command."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", [
    "check",
    "ring --k 1.3",
    f"ring --k {PI!r}",  # symmetric_buttiker's flagged gap, settled as a one-row block
    "junction --k 1.3",
    "sweep --n 4096",
    "find --k-min 3 --k-max 4.5 --kind transmission",
    "find --k-min 3 --k-max 4.5 --kind reflection",
])
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_commands_write_nothing_to_stderr(capsys, path, command):
    code, out, err = run(capsys, command.split() + ["--config", str(path)])
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("command", [
    "find --k-min 1 --k-max 1000 --kind transmission",  # enumerated on the scale-invariant configs
    "find --k-min 1 --k-max 1000 --kind reflection",  # and scanned on general_ring
    "sweep --k-min 0.5 --k-max 10 --n 64",
])
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_wide_searches_and_a_short_sweep_succeed(capsys, path, command):
    assert run(capsys, command.split() + ["--config", str(path)])[0] == 0


@pytest.mark.parametrize("name, kind, k_min, k_max, lines", [
    # every analytic line, enumerated rather than scanned; symmetric_buttiker's reflection
    # has none, its minima being ((1 - rho)/(1 + rho))^2 = 0.36, known without an evaluation
    ("symmetric_buttiker", "transmission", "1e4", "1e5", 28_647),
    ("antisymmetric_generic", "reflection", "1e4", "1e5", 28_647),
    ("antisymmetric_generic", "transmission", "1e4", "1e5", 57_296),
    ("symmetric_buttiker", "reflection", "1e4", "1e5", 0),
    # every symmetric ring is a Fabry-Perot cavity: General(right=left) answers as mode
    # symmetric, and generic_symmetric's exterior weights keep |s11| above 0.5
    ("generic_symmetric", "transmission", "1e3", "1e4", 2_865),
    ("general_symmetric", "transmission", "1e4", "1e5", 28_647),
    ("general_symmetric", "reflection", "1e4", "1e5", 0),
])
def test_find_line_counts(capsys, tmp_path, name, kind, k_min, k_max, lines):
    out = tmp_path / "lines.csv"
    argv = ["find", "--config", config_path(name, tmp_path), "--k-min", k_min, "--k-max", k_max, "--kind", kind]
    assert run(capsys, argv + ["--out", str(out)]) == (0, "", "")
    header, *rows = out.read_text().splitlines()
    assert header == "k_star,kind,residual" and len(rows) == lines


@pytest.mark.parametrize("name, k_min, k_max, warning", [
    # 512 samples over about 28,648 line spacings pi/dxi, and 400 over about 350
    ("near_scale_invariant_antisymmetric", "1e4", "1e5", "[10000, 100000] takes 0.0178 samples per line spacing "
     "pi/dxi, fewer than 4, and can miss lines: scan_n (--n) 114593 takes 4"),
    ("general_ring", "1", "1000", "[1, 1000] takes 1.14 samples per line spacing "
     "pi/dxi, fewer than 4, and can miss lines: scan_n (--n) 1401 takes 4"),
])
def test_a_scan_sparser_than_the_lines_warns(capsys, tmp_path, name, k_min, k_max, warning):
    argv = ["find", "--config", config_path(name, tmp_path), "--k-min", k_min, "--k-max", k_max,
            "--kind", "transmission"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, f"warning: scan of {warning}\n") and out


def test_general_ring_small_wavenumbers_are_regular(capsys):
    # |det| ~ k^2 but a well conditioned gap from about k = 1.6e-13: no row is flagged
    argv = ["sweep", "--config", str(CONFIG_DIR / "general_ring.json"), "--k-min", "1e-12", "--k-max", "1e-6",
            "--n", "1000"]
    code, out, err = run(capsys, argv)
    rows = out.splitlines()[1:]
    assert (code, err, len(rows)) == (0, "", 1000)
    assert not [row for row in rows if row.endswith(",1")]


@pytest.mark.parametrize("name", ["general_symmetric", "generic_symmetric"])
def test_symmetric_rings_answer_on_their_lines(capsys, tmp_path, name):
    # n pi (dxi = 1) is a line of both rings: the ring at pi and 7 pi, and 300 points
    # from pi to 300 pi, 250 of them on an exact line, with no degenerate row
    config = config_path(name, tmp_path)
    for k in (PI, 7 * PI):
        code, _, err = run(capsys, ["ring", "--config", config, "--k", repr(k)])
        assert (code, err) == (0, ""), k
    argv = ["sweep", "--config", config, "--k-min", repr(PI), "--k-max", repr(300 * PI), "--n", "300"]
    code, out, err = run(capsys, argv)
    rows = out.splitlines()[1:]
    assert (code, err, len(rows)) == (0, "", 300)
    assert not [row for row in rows if row.endswith(",1")]


@pytest.mark.parametrize("name", ["decoupled_symmetric_buttiker", "decoupled_antisymmetric_generic",
                                  "decoupled_exterior_antisymmetric"])
def test_decoupled_rings_reflect_nowhere(capsys, tmp_path, name):
    # F vanishes identically and the closed interior ring has a bound state at each
    # n pi/dxi (U = +-I) or (n + 1/2) pi/dxi (U = diag(1, 1, -1), whose exterior wire
    # alone decouples).  Those scan rows stay degenerate and read NaN, so the noise
    # dips of |F|^2 beside them are no perfect reflection (3 and 9 lines when such a
    # row read +inf), and the last ring is scanned, not enumerated, as its bound states
    # would keep every line n pi/dxi; `ring` at a bound state exits 3
    config = config_path(name, tmp_path)
    argv = ["find", "--config", config, "--k-min", repr(PI), "--k-max", repr(10 * PI), "--n", "1000",
            "--kind", "reflection"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out.splitlines()[0].endswith(": 0 found")
    bound = PI / 2 if name == "decoupled_exterior_antisymmetric" else PI
    code, _, err = run(capsys, ["ring", "--config", config, "--k", repr(bound)])
    assert code == 3 and err.startswith("degenerate ring: ")


@pytest.mark.parametrize("name, kind", [("weakly_coupled_symmetric", "transmission"),
                                        ("weakly_coupled_antisymmetric", "reflection")])
def test_a_weakly_coupled_ring_keeps_its_lines(capsys, tmp_path, name, kind):
    # 1 - |h11|^2 is far above DEGENERATE_TOL: the node couples, and each line n pi/dxi
    # is a perfect transmission (symmetric) or reflection (antisymmetric), reported at
    # its analytic float.  The antisymmetric ring's midpoints read degenerate, which
    # is no evidence that F vanishes identically: its lines stay
    dxi = derived_configs()[name]["ring"]["xi1"]
    argv = ["find", "--config", config_path(name, tmp_path), "--k-min", "0.5", "--k-max", "10", "--kind", kind]
    code, out, err = run(capsys, argv)
    header, *rows = out.splitlines()
    assert (code, err) == (0, "") and header.endswith(": 3 found")
    assert [float(row.split()[2]) for row in rows] == [float(f"{n * PI / dxi:.15g}") for n in (1, 2, 3)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: the bounce series does not reach tol=1e-12 within "
                   "16777216 terms on a weakly coupled ring, and check exits 4")
@pytest.mark.parametrize("name", ["weakly_coupled_symmetric", "weakly_coupled_antisymmetric"])
def test_check_vouches_for_a_weakly_coupled_ring(capsys, tmp_path, name):
    # the node couples (1 - |h11|^2 far above DEGENERATE_TOL), so the ring is as checkable as any
    code, out, err = run(capsys, ["check", "--config", config_path(name, tmp_path)])
    assert (code, err) == (0, "") and out.splitlines()[-1] == "all checks passed"


def test_a_degenerate_analytic_position_is_a_warning(capsys, tmp_path):
    # weakly_coupled_antisymmetric's transmission minima lie on the degenerate midpoints
    # (n - 1/2) pi/dxi: each reads NaN, a bound state on the predicted line, which
    # confirms nothing and is no line
    argv = ["find", "--config", config_path("weakly_coupled_antisymmetric", tmp_path), "--k-min", "0.5",
            "--k-max", "10", "--kind", "transmission"]
    code, out, err = run(capsys, argv)
    assert code == 0 and out.splitlines() == ["resonances (kind=transmission) in [0.5, 10]: 0 found"]
    assert err.splitlines() == [f"warning: analytic resonance at k={k} reads degenerate (a bound state), not confirmed"
                                for k in ("1.60018427225", "4.80055281674", "8.00092136124")]


def test_ring_skips_the_cross_check_where_the_resolvent_is_degenerate(capsys, tmp_path):
    # 10 pi is a line of generic_symmetric: the Fabry-Perot form answers |F|^2 = 1, while
    # the resolvent holds a bound state there and solve_algebraic raises
    argv = ["ring", "--config", config_path("generic_symmetric", tmp_path), "--k", repr(10 * PI)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert "p_transmission = 1.000000000000e+00" in out.splitlines()
    assert out.splitlines()[-1] == "algebraic cross-check skipped (resolvent degenerate at this k)"
