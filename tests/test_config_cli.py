import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from yring import JunctionParams, ResonanceKind, ResonanceSearch, cli, ring
from yring.cli import main
from yring.config import _JUNCTION_FIELDS, ConfigError, load_config, parse_angle

PI = math.pi
REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
SYMMETRIC_CFG = str(CONFIG_DIR / "symmetric_buttiker.json")
ANTISYMMETRIC_CFG = str(CONFIG_DIR / "antisymmetric_generic.json")
GENERAL_CFG = str(CONFIG_DIR / "general_ring.json")


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cli_env() -> dict[str, str]:
    """The environment for a `python -m yring.cli` child: src importable, stdout buffered as by default."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def reflector_config(tmp_path: Path) -> str:
    return write_config(
        tmp_path,
        {
            "junctions": {"mirror": {"theta": ["pi:1", "pi:1", "pi:1"], "beta": 0.8}},
            "ring": {"left": "mirror", "mode": "symmetric", "xi1": 1.0, "xi2": 0.0},
            "task": {"k_min": 0.5, "k_max": 2.9, "n": 5, "kind": "reflection"},
        },
    )


class TestConfigParsing:
    def test_parse_angle_forms(self):
        assert parse_angle(1.25, "x") == 1.25
        assert parse_angle("pi:0.5", "x") == pytest.approx(PI / 2)
        assert parse_angle("pi:-1", "x") == pytest.approx(-PI)
        with pytest.raises(ConfigError, match="x"):
            parse_angle("half-pi", "x")
        with pytest.raises(ConfigError, match="x"):
            parse_angle("pi:two", "x")
        with pytest.raises(ConfigError):
            parse_angle(True, "x")

    def test_load_shipped_config(self):
        cfg = load_config(SYMMETRIC_CFG)
        assert set(cfg.junctions) == {"splitter"}
        splitter = cfg.junctions["splitter"]
        assert splitter.theta[1] == pytest.approx(PI)
        assert splitter.beta == pytest.approx(3 * PI / 2)
        assert cfg.ring is not None and cfg.ring.xi1 == 1.0
        assert cfg.task["kind"] == "transmission"

    def test_error_messages_name_fields(self, tmp_path):
        bad = {
            "junctions": {"j": {"theta": ["pi:1", 0, 0], "bogus": 3}},
        }
        with pytest.raises(ConfigError, match="junctions.j.bogus"):
            load_config(write_config(tmp_path, bad))
        bad = {"junctions": {"j": {"theta": [0, 0]}}}
        with pytest.raises(ConfigError, match="junctions.j.theta"):
            load_config(write_config(tmp_path, bad))
        bad = {"junctions": {"j": {}}, "ring": {"left": "nope", "mode": "symmetric", "xi1": 1, "xi2": 0}}
        with pytest.raises(ConfigError, match="ring.left"):
            load_config(write_config(tmp_path, bad))
        bad = {"junctions": {"j": {}}, "ring": {"left": "j", "mode": "symmetric", "xi1": 0, "xi2": 1}}
        with pytest.raises(ConfigError, match="xi1"):
            load_config(write_config(tmp_path, bad))
        bad = {"junctions": {"j": {}}, "ring": {"left": "j", "mode": "moebius", "xi1": 1, "xi2": 0}}
        with pytest.raises(ConfigError, match="ring.mode"):
            load_config(write_config(tmp_path, bad))
        bad = {"junctions": {"j": {}}, "ring": {"left": "j", "mode": "general", "xi1": 1, "xi2": 0}}
        with pytest.raises(ConfigError, match="ring.right"):
            load_config(write_config(tmp_path, bad))
        bad = {"junctions": {"j": {}}, "ring": {"left": ["j"], "mode": "symmetric", "xi1": 1, "xi2": 0}}
        with pytest.raises(ConfigError, match="ring.left"):
            load_config(write_config(tmp_path, bad))
        bad = {"junctions": {"j": {}},
               "ring": {"left": "j", "right": ["j"], "mode": "general", "xi1": 1, "xi2": 0}}
        with pytest.raises(ConfigError, match="ring.right"):
            load_config(write_config(tmp_path, bad))

    def test_junction_keys_are_the_dataclass_fields(self, tmp_path):
        # the parser and JunctionParams read one list of Euler angles, so they cannot drift apart
        names = [f.name for f in dataclasses.fields(JunctionParams)]
        assert _JUNCTION_FIELDS == set(names)
        block = {name: 0.1 * (i + 1) for i, name in enumerate(names)} | {"theta": [0.3, "pi:1", 2.0]}
        parsed = load_config(write_config(tmp_path, {"junctions": {"j": block}})).junctions["j"]
        assert parsed == JunctionParams(**block | {"theta": (0.3, PI, 2.0)})

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_rejects_bad_junction_values(self, tmp_path):
        bad = {"junctions": {"j": {"L0": -1.0}}}
        with pytest.raises(ConfigError, match="junctions.j"):
            load_config(write_config(tmp_path, bad))

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"junctions": {"n\u00f6de": {}}}'.encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^{re.escape(f'cannot read config {path}: ')}"):
            load_config(path)
        assert main(["junction", "--config", str(path), "--k", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}: ")

    def test_unknown_task_key_is_config_error(self, tmp_path, capsys):
        # a misspelt k_min must not leave find searching the default range
        doc = json.loads(Path(SYMMETRIC_CFG).read_text())
        doc["task"]["k_mn"] = 5
        assert main(["find", "--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: task.k_mn: unknown field\n"
        assert captured.out == ""


class TestJunctionCommand:
    def test_report_contents(self, capsys):
        assert main(["junction", "--config", SYMMETRIC_CFG]) == 0
        out = capsys.readouterr().out
        assert "junction 'splitter'" in out
        assert "scale-invariant: yes" in out
        assert "time-reversal symmetric: yes" in out
        # balanced split of port 1 for b = pi/6: cos^2(pi/3) = 1/4, rest split evenly
        assert "0.250000000000" in out
        assert "0.375000000000" in out

    def test_missing_k_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"junctions": {"j": {}}})
        assert main(["junction", "--config", cfg]) == 2
        assert "task.k" in capsys.readouterr().err

    def test_unknown_junction_name(self, capsys):
        assert main(["junction", "--config", SYMMETRIC_CFG, "--junction", "nope", "--k", "1"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_full_reflector_report(self, tmp_path, capsys):
        cfg = reflector_config(tmp_path)
        assert main(["junction", "--config", cfg, "--k", "1.3"]) == 0
        out = capsys.readouterr().out
        assert "scale-invariant: yes" in out
        # the probability table is the identity: all flux reflects
        assert "  1.000000000000  0.000000000000  0.000000000000" in out

    def test_time_reversal_breaking_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "junctions": {
                    "j": {
                        "theta": [0.53815, 1.487924, 5.034556],
                        "alpha": "pi:0.3333333333333333",
                        "beta": 3.657832,
                        "gamma": 0.591428,
                        "delta": 2.721417,
                        "a": 3.009968,
                        "b": 1.003669,
                    }
                },
                "task": {"k": 1.7},
            },
        )
        assert main(["junction", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "time-reversal symmetric: no" in out
        assert "scale-invariant: no" in out


class TestRingCommand:
    def test_perfect_transmission_report(self, capsys):
        assert main(["ring", "--config", SYMMETRIC_CFG, "--k", repr(PI)]) == 0
        out = capsys.readouterr().out
        refl = float(next(l for l in out.splitlines() if l.startswith("p_reflection")).split("=")[1])
        trans = float(next(l for l in out.splitlines() if l.startswith("p_transmission")).split("=")[1])
        assert refl < 1e-10
        assert trans == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_ring_exit_code(self, tmp_path, capsys):
        cfg = reflector_config(tmp_path)
        assert main(["ring", "--config", cfg, "--k", repr(PI)]) == 3
        assert "degenerate" in capsys.readouterr().err


class TestSweepCommand:
    def test_row_count_and_header(self, capsys):
        assert main(["sweep", "--config", SYMMETRIC_CFG, "--k-min", "0.5", "--k-max", "2.5", "--n", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0] == (
            "k,abs2_A,abs2_B,abs2_C,abs2_D,abs2_E,abs2_F,re_A,im_A,re_F,im_F,degenerate"
        )
        assert all(row.endswith(",0") for row in lines[1:])

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            assert main(["sweep", "--config", SYMMETRIC_CFG, "--out", out]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert Path(out1).read_bytes().count(b"\r") == 0

    def test_degenerate_rows_flagged(self, tmp_path, capsys):
        cfg = reflector_config(tmp_path)
        assert main([
            "sweep", "--config", cfg,
            "--k-min", repr(PI / 2), "--k-max", repr(3 * PI / 2), "--n", "3",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[2].endswith(",1")
        assert "nan" in lines[2]
        assert lines[1].endswith(",0") and lines[3].endswith(",0")

    def test_bad_grid_is_config_error(self, capsys):
        assert main(["sweep", "--config", SYMMETRIC_CFG, "--k-min", "2", "--k-max", "1", "--n", "4"]) == 2


class TestFindCommand:
    def test_finds_transmission_lattice(self, capsys):
        assert main([
            "find", "--config", SYMMETRIC_CFG,
            "--k-min", "0.5", "--k-max", "7.0", "--kind", "transmission",
        ]) == 0
        out = capsys.readouterr().out
        ks = [float(l.split("=")[1].split("residual")[0]) for l in out.splitlines() if l.startswith("k* ")]
        assert len(ks) == 2
        assert ks[0] == pytest.approx(PI, rel=1e-9)
        assert ks[1] == pytest.approx(2 * PI, rel=1e-9)

    def test_csv_output(self, tmp_path):
        out = str(tmp_path / "resonances.csv")
        assert main([
            "find", "--config", ANTISYMMETRIC_CFG,
            "--k-min", "0.5", "--k-max", "7.0", "--kind", "reflection", "--out", out,
        ]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "k_star,kind,residual"
        assert len(lines) == 3
        assert all(",reflection," in l for l in lines[1:])

    @staticmethod
    def hand_built_lines(n: int) -> np.ndarray:
        """n rows (k*, residual): the edge values first, then seeded doubles of 17 significant digits."""
        edges = [(1000.0, 0.0), (1e5, 5e-324), (0.1 + 0.2, 2.0 / 3.0 * 1e-9), (PI, 1e-8 - 1e-24)][:n]
        rng = np.random.default_rng(n)
        rows = np.column_stack((rng.uniform(1.0, 2e5, n), rng.uniform(0.0, 1e-8, n) * rng.random(n) ** 40))
        rows[:len(edges)] = np.reshape(edges, (-1, 2))
        return rows

    @pytest.mark.parametrize("n", [0, 1, 512, 513, 1100])
    @pytest.mark.parametrize("kind", list(ResonanceKind))
    def test_output_bytes_of_a_hand_built_search(self, tmp_path, capsys, monkeypatch, kind, n):
        # both outputs against a per-line f-string of their format; n runs across _CSV_BLOCK (512 rows)
        rows = self.hand_built_lines(n)
        assert n < 3 or float(f"{rows[2, 0]:.16g}") != rows[2, 0]  # 0.30000000000000004 needs 17 digits
        search = ResonanceSearch(kind, rows, ("a warning",))
        monkeypatch.setattr(cli, "find_resonances", lambda *args, **kwargs: search)
        argv = ["find", "--config", SYMMETRIC_CFG, "--kind", kind.value, "--k-min", "0.5", "--k-max", "2e5"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == f"resonances (kind={kind.value}) in [0.5, 200000]: {n} found\n" + "".join(
            f"k* = {k:.15g}   residual = {r:.6e}\n" for k, r in rows.tolist())
        assert captured.err == "warning: a warning\n"
        out = tmp_path / "found.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == ("k_star,kind,residual\n" + "".join(
            f"{k:.17g},{kind.value},{r:.17g}\n" for k, r in rows.tolist())).encode()

    WARNING_ARGV = ["find", "--config", SYMMETRIC_CFG, "--k-min", "0.5", "--k-max", "10",
                    "--kind", "transmission", "--tol", "1e-300"]  # 3 analytic resonances, none below tol

    def test_warnings_follow_the_written_output(self, tmp_path, capsys):
        # A search whose analytic resonances miss tol warns, but only
        # once its output is written: a failed write reports the error alone.
        out = tmp_path / "missing" / "x.csv"
        assert main(self.WARNING_ARGV + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot write --out {out}: ")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        # On one pipe for both streams, and with stdout block-buffered as it is
        # without PYTHONUNBUFFERED, the report comes first.
        run = subprocess.run([sys.executable, "-m", "yring.cli", *self.WARNING_ARGV],
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                             env=cli_env(), check=True)
        lines = run.stdout.splitlines()
        assert lines[0].startswith("resonances (kind=transmission) in [0.5, 10]: ")
        warned = [line.startswith("warning: ") for line in lines]
        assert warned == sorted(warned) and sum(warned) == 3  # the report, then the warnings

    def test_warnings_survive_a_closed_stdout(self):
        # `yring find ... | head -0`: the reader has gone before the report is
        # written; the run still ends as a broken pipe and still warns.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run([sys.executable, "-m", "yring.cli", *self.WARNING_ARGV],
                                 stdout=write_end, stderr=subprocess.PIPE, text=True,
                                 env=cli_env(), timeout=60)
        finally:
            os.close(write_end)
        assert run.returncode == cli.EXIT_BROKEN_PIPE
        lines = run.stderr.splitlines()
        assert len(lines) == 3 and all(line.startswith("warning: analytic resonance ") for line in lines)


#: The lines of `yring check` on each shipped config, numbers masked.
SHIPPED_CHECK_LINES = {
    SYMMETRIC_CFG: [
        "check unitarity U (splitter): <x> <= 1e-12 ok",
        "check unitarity S (splitter): <x> <= 1e-12 ok",
        "check node-condition residual (splitter): <x> <= 1e-10 ok",
        "check three-way solver agreement: <x> <= 1e-10 ok",
        "check flux conservation: <x> <= 1e-10 ok",
        "all checks passed",
    ],
    ANTISYMMETRIC_CFG: [
        "check unitarity U (node): <x> <= 1e-12 ok",
        "check unitarity S (node): <x> <= 1e-12 ok",
        "check node-condition residual (node): <x> <= 1e-10 ok",
        "check three-way solver agreement: <x> <= 1e-10 ok",
        "check flux conservation: <x> <= 1e-10 ok",
        "all checks passed",
    ],
    GENERAL_CFG: [
        "check unitarity U (left_node): <x> <= 1e-12 ok",
        "check unitarity S (left_node): <x> <= 1e-12 ok",
        "check node-condition residual (left_node): <x> <= 1e-10 ok",
        "check unitarity U (right_node): <x> <= 1e-12 ok",
        "check unitarity S (right_node): <x> <= 1e-12 ok",
        "check node-condition residual (right_node): <x> <= 1e-10 ok",
        "check three-way solver agreement: <x> <= 1e-10 ok",
        "check flux conservation: <x> <= 1e-10 ok",
        "all checks passed",
    ],
}

#: The measured value of a check line.
CHECK_NUMBER = re.compile(r"(?<=: )\S+(?= <= )")


def nan_row(values: np.ndarray) -> np.ndarray:
    """values with NaN in the middle row, past the first, as a new array."""
    values = np.array(values, dtype=values.dtype)
    values[len(values) // 2] = math.nan
    return values


def with_nan_amplitude(grid):
    """A grid solve of cmd_check whose amplitude A is NaN at the middle wavenumber."""
    def wrapped(*args):
        (a, *rest), mask = grid(*args)
        return (nan_row(a), *rest), mask
    return wrapped


def with_nan_row(solve_grid):
    """solve_grid whose amplitudes are NaN at the middle wavenumber of cmd_check's grid."""
    def wrapped(*args):
        amps, degenerate = solve_grid(*args)
        return nan_row(amps), degenerate
    return wrapped


def with_nan_series(solve_series):
    """solve_series whose amplitude A is NaN at the middle one of cmd_check's calls."""
    calls = []

    def wrapped(s1, s2, **kwargs):
        amps, terms = solve_series(s1, s2, **kwargs)
        calls.append(s1)
        if len(calls) == cli._CHECK_KS // 2 + 1:
            amps = dataclasses.replace(amps, A=complex(math.nan, 0.0))
        return amps, terms
    return wrapped


def with_nan_residual(residual):
    """_residual with NaN at the middle sample."""
    return lambda *args: nan_row(residual(*args))


#: The cli name that each NaN injection wraps, and its wrapper.
NAN_INJECTIONS = {
    "series": ("solve_series", with_nan_series),
    "resolvent": ("solve_grid", with_nan_row),  # general_ring's route
    "algebraic": ("_algebraic_grid", with_nan_amplitude),
    "residual": ("_residual", with_nan_residual),
}


def check_wavenumbers(path: str, monkeypatch) -> list[float]:
    """The seeded wavenumbers of `yring check`'s ring lines on a config, in draw order."""
    ks = []
    solve_series = cli.solve_series

    def recording(s1, s2, **kwargs):
        ks.append(s1.k)
        return solve_series(s1, s2, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve_series", recording)
        assert main(["check", "--config", path]) == 0
    assert len(ks) == cli._CHECK_KS
    return ks


class TestCheckCommand:
    @pytest.mark.parametrize("cfg", [SYMMETRIC_CFG, ANTISYMMETRIC_CFG, GENERAL_CFG])
    def test_shipped_configs_pass(self, cfg, capsys):
        # every line, in order, with the numbers masked; no warning of the
        # batched path reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert [CHECK_NUMBER.sub("<x>", line) for line in lines] == SHIPPED_CHECK_LINES[cfg]
        assert all(line.endswith(" ok") for line in lines[:-1])

    def test_near_decoupled_ring_fails_to_converge(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "junctions": {"j": {"theta": ["pi:1", "pi:1", 3.1415906], "beta": 1.1, "delta": 0.7, "b": 2.2}},
                "ring": {"left": "j", "mode": "symmetric", "xi1": 1.0, "xi2": 0.0},
            },
        )
        assert main(["check", "--config", cfg]) == 4
        assert "convergence" in capsys.readouterr().err

    @pytest.mark.parametrize("L0, xi1, message", [
        # a node sample, then a ring wavenumber, that the node matrix rejects
        (1e308, 1.0, "k*L0 overflows at k=2.4843104961753033, L0=1e+308: the node matrix is not finite"),
        (1.0, 1e307, "k*xi overflows in the position phase at k=9.317931539798835, xi=1e+307: "
                     "the node matrix is not finite"),
    ])
    def test_rejected_sample_is_config_error(self, L0, xi1, message, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "junctions": {"j": {"theta": [1.0, 2.0, 3.0], "beta": 1.1, "L0": L0}},
            "ring": {"left": "j", "mode": "symmetric", "xi1": xi1, "xi2": 0.0},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("where", ["series", "resolvent", "algebraic", "residual"])
    def test_nan_fails_the_check(self, where, monkeypatch, capsys):
        # a NaN at one sample, past the first, fails its line: every worst
        # value propagates NaN
        label = {"residual": "node-condition residual (left_node)"}.get(where, "three-way solver agreement")
        name, wrap = NAN_INJECTIONS[where]
        monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
        assert main(["check", "--config", GENERAL_CFG]) == 1
        out = capsys.readouterr().out
        assert f"check {label}: nan <= 1e-10 FAIL\n" in out
        assert out.endswith("CHECK FAILED\n")

    @pytest.mark.parametrize("singular_at, fails_at, code", [(4, 8, 3), (8, 4, 4)])
    def test_first_failure_in_draw_order_wins(self, singular_at, fails_at, code, monkeypatch, capsys):
        # the ring decoupled at one seeded wavenumber, the series failing at
        # another: the earlier one ends the run, with its per-point error
        ks = check_wavenumbers(GENERAL_CFG, monkeypatch)
        capsys.readouterr()
        solve_series, node_entries, arrays = cli.solve_series, ring._Route.node_entries, ring._Route.arrays

        def failing_series(s1, s2, **kwargs):
            if s1.k == ks[fails_at]:
                kwargs["max_terms"] = 1  # the series cannot end within one term
            return solve_series(s1, s2, **kwargs)

        def decoupled_row(route, wavenumbers):
            # both nodes reflect every wire into itself there: I - s s~ = 0 and
            # no launch, a real decoupling
            accepted, s, t = node_entries(route, wavenumbers)
            s[..., singular_at] = t[..., singular_at] = np.eye(3)
            return accepted, s, t

        def decoupled_point(route, k):
            # the same nodes on the per-point route, where solve_auto raises
            return (np.eye(3, dtype=complex),) * 2 if k == ks[singular_at] else arrays(route, k)

        monkeypatch.setattr(cli, "solve_series", failing_series)
        monkeypatch.setattr(ring._Route, "node_entries", decoupled_row)
        monkeypatch.setattr(ring._Route, "arrays", decoupled_point)
        assert main(["check", "--config", GENERAL_CFG]) == code
        out, err = capsys.readouterr()
        assert out == ""
        if code == cli.EXIT_DEGENERATE:
            assert err.startswith(f"degenerate ring: ring is degenerate at k={ks[singular_at]!r}: ")
        else:
            assert err.startswith("convergence failure: bounce series did not reach tol=1e-12 within 1 terms")


class TestArgumentErrors:
    def test_unreadable_config(self, capsys):
        assert main(["check", "--config", "/nonexistent/path.json"]) == 2

    def test_invalid_wavenumber_is_config_error(self, capsys):
        assert main(["ring", "--config", SYMMETRIC_CFG, "--k", "-1"]) == 2
        assert "k must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [SYMMETRIC_CFG, ANTISYMMETRIC_CFG, GENERAL_CFG])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--k-min", "1e307", "--k-max", "1.7e308", "--n", "3"],
        ["ring", "--k", "1.7e308"],
        ["junction", "--k", "1.7e308"],
    ])
    def test_overflowing_wavenumber_is_config_error(self, cfg, argv, capsys):
        # k * L0 and k * xi overflow, so the node matrices would not be finite
        assert main(argv + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "k*xi overflows in the position phase" in err  # 2*k overflows first on these configs
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("command, task, field", [
        ("junction", '{"junction": ["j"], "k": 1}', "task.junction"),
        ("junction", '{"xi": [1], "k": 1}', "task.xi"),
        ("find", '{"tol": [1], "k_min": 1, "k_max": 2, "kind": "reflection"}', "task.tol"),
        ("find", '{"n": [1], "k_min": 1, "k_max": 2, "kind": "reflection"}', "task.n"),
        ("find", '{"n": 1e400, "k_min": 1, "k_max": 2, "kind": "reflection"}', "task.n"),
        ("sweep", '{"n": 1e400, "k_min": 1, "k_max": 2}', "task.n"),
        ("sweep", '{"n": 4.5, "k_min": 1, "k_max": 2}', "task.n"),
    ])
    def test_malformed_task_values_name_fields(self, tmp_path, capsys, command, task, field):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"junctions": {"j": {}}, '
            '"ring": {"left": "j", "mode": "symmetric", "xi1": 1, "xi2": 0}, '
            f'"task": {task}}}'
        )
        assert main([command, "--config", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sweep"], ["find", "--kind", "transmission"]])
    def test_grid_too_large_to_allocate_is_config_error(self, capsys, argv):
        # numpy refuses 10**15 points (8 PB) at once, without allocating any of it
        assert main(argv + ["--config", GENERAL_CFG, "--n", str(10**15)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: task.n: too many points to hold in memory")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("name, k_min, k_max, kind, message", [
        ("symmetric_buttiker", "1e17", "1.000000000001e17", "transmission", "k_max must be below 2**52 pi/dxi = "),
        ("antisymmetric_generic", "1e17", "1.000000000001e17", "reflection", "k_max must be below 2**52 pi/dxi = "),
        ("symmetric_buttiker", "1", "1e15", "transmission", "too many lines in [1.0, 1000000000000000.0] to hold"),
    ])
    def test_a_lattice_find_cannot_enumerate_is_a_task_error(self, capsys, name, k_min, k_max, kind, message):
        # from k_max dxi/pi = 2**52 the enumeration crashed on a broadcast; a lattice
        # of 2.26 PiB was reported as a bad task.n, a field the search does not read
        config = str(CONFIG_DIR / f"{name}.json")
        assert main(["find", "--config", config, "--k-min", k_min, "--k-max", k_max, "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: task: " + message)
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert "broadcast" not in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command, where, field", [
        ("ring", ("ring", "xi1"), "ring.xi1"),
        ("junction", ("junctions", "j", "alpha"), "junctions.j.alpha"),
        ("junction", ("junctions", "j", "L0"), "junctions.j.L0"),
        ("ring", ("task", "k"), "task.k"),
        ("sweep", ("task", "n"), "task.n"),
    ])
    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys, command, where, field):
        # JSON integers are unbounded: float(10**400) raises OverflowError
        doc = {
            "junctions": {"j": {"alpha": 0.5, "L0": 1}},
            "ring": {"left": "j", "mode": "symmetric", "xi1": 1, "xi2": 0},
            "task": {"k": 1.3, "n": 4, "k_min": 1, "k_max": 2},
        }
        *parents, name = where
        block = doc
        for key in parents:
            block = block[key]
        block[name] = 10**400
        path = write_config(tmp_path, doc)
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {field}: integer too large to convert to a float\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["1", "1e8", "inf"])
    def test_find_tol_outside_unit_interval_is_config_error(self, capsys, tol):
        argv = ["find", "--config", SYMMETRIC_CFG, "--kind", "transmission", "--tol", tol]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: task: tol must lie strictly between 0 and 1")
        assert captured.out == ""

    @pytest.mark.parametrize("n", ["2", "0", "-5"])
    def test_find_scan_count_error_names_the_flag(self, capsys, n):
        argv = ["find", "--config", SYMMETRIC_CFG, "--kind", "transmission", "--n", n]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: task.n: expected at least 3 scan points, got {n}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, bound", [
        (["find", "--kind", "transmission", "--k-max", "inf"], "k_max < inf"),
        (["find", "--kind", "reflection", "--k-min", "1e-308", "--k-max", "1e308"], "k_max/k_min"),
        (["sweep", "--k-max", "inf", "--n", "5"], "k_max < inf"),
        (["sweep", "--k-min", "1e-308", "--k-max", "1e308", "--n", "5"], "k_max/k_min"),
    ])
    def test_unbounded_range_is_config_error(self, tmp_path, capsys, argv, bound):
        # no task.n, so find sizes its scan from k_max/k_min
        doc = json.loads(Path(GENERAL_CFG).read_text())
        del doc["task"]["n"]
        assert main(argv + ["--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and bound in err
        assert "Warning" not in err

    @pytest.mark.parametrize("argv", [
        ["ring", "--k", "5e-324"],
        ["junction", "--k", "5e-324"],
        ["sweep", "--k-min", "5e-324", "--k-max", "1e-323", "--n", "2"],
    ])
    def test_underflowing_wavenumber_is_config_error(self, tmp_path, capsys, argv):
        # k*L0 = 0.4 * 5e-324 rounds to zero; the eigenphase 0 would divide 0 by 0
        cfg = write_config(tmp_path, {
            "junctions": {"j": {"theta": [0, "pi:1", "pi:1"], "beta": 0.8, "L0": 0.4}},
            "ring": {"left": "j", "right": "j", "mode": "general", "xi1": 1.0, "xi2": 0.0},
        })
        assert main(argv + ["--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "k*L0 underflows to zero at k=5e-324, L0=0.4" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["junction", "--k", "1.3"],
        ["ring", "--k", "1.3"],
        ["sweep", "--n", "3"],
        ["find", "--kind", "transmission"],
        ["check"],
    ])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, argv):
        for out in (tmp_path / "missing" / "x.txt", tmp_path):  # no parent directory; a directory
            assert main(argv + ["--config", SYMMETRIC_CFG, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: cannot write --out {out}: ")

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate", "--config", SYMMETRIC_CFG])
        assert err.value.code == 2


ONE_JUNCTION = {"junctions": {"j": {}}}
RING_BLOCK = {"left": "j", "mode": "symmetric", "xi1": 1, "xi2": 0}


def without(block: dict, key: str) -> dict:
    return {name: value for name, value in block.items() if name != key}


class TestErrorMessages:
    """Each config error the shipped configs never meet: its message, alone on stderr, and exit 2."""

    @pytest.mark.parametrize("argv, doc, message", [
        (["check"], [1], "config root must be an object"),
        (["check"], {**ONE_JUNCTION, "rings": {}}, "rings: unknown top-level field"),
        (["check"], {}, "junctions: at least one named junction block is required"),
        (["check"], {"junctions": {}}, "junctions: at least one named junction block is required"),
        (["check"], {"junctions": {"j": 3}}, "junctions.j: expected an object"),
        (["check"], {**ONE_JUNCTION, "task": [1]}, "task: expected an object"),
        (["check"], {**ONE_JUNCTION, "ring": "j"}, "ring: expected an object"),
        (["check"], {**ONE_JUNCTION, "ring": {**RING_BLOCK, "arm": 2}}, "ring.arm: unknown field"),
        *[(["check"], {**ONE_JUNCTION, "ring": without(RING_BLOCK, key)}, f"ring.{key}: required")
          for key in ("left", "mode", "xi1", "xi2")],
        (["check"], {**ONE_JUNCTION, "ring": {**RING_BLOCK, "right": "j"}},
         "ring.right: only valid for general mode"),
        (["junction", "--k", "1.3"], {"junctions": {"i": {}, "j": {}}},
         "task.junction: required when the config defines several junctions"),
        (["junction", "--k", "1.3"], {**ONE_JUNCTION, "task": {"orientation": "sideways"}},
         "task.orientation: expected inward|outward, got 'sideways'"),
        (["ring", "--k", "1.3"], ONE_JUNCTION, "ring: block required for this command"),
        (["sweep", "--k-min", "1", "--k-max", "2", "--n", "3"], ONE_JUNCTION,
         "ring: block required for this command"),
        (["find", "--k-min", "1", "--k-max", "2", "--kind", "transmission"], ONE_JUNCTION,
         "ring: block required for this command"),
    ])
    def test_message(self, tmp_path, capsys, argv, doc, message):
        assert main(argv + ["--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""


#: `yring --help` and `yring <command> --help` on an 80-column terminal.
HELP_SCREENS = {
    "": """\
usage: yring [-h] {junction,ring,sweep,find,check} ...

Scattering amplitudes and resonances for double-node quantum ring systems.

positional arguments:
  {junction,ring,sweep,find,check}
    junction            report one node's scattering matrix
    ring                solve the ring at one wavenumber
    sweep               CSV spectrum over a wavenumber range
    find                locate perfect transmission/reflection
    check               run the invariant suite on the config

options:
  -h, --help            show this help message and exit
""",
    "junction": """\
usage: yring junction [-h] --config CONFIG [--out OUT] [--k K]
                      [--junction JUNCTION]

options:
  -h, --help           show this help message and exit
  --config CONFIG      path to the JSON config file
  --out OUT            write the report/CSV to this path
  --k K                wavenumber
  --junction JUNCTION  junction block name
""",
    "ring": """\
usage: yring ring [-h] --config CONFIG [--out OUT] [--k K]

options:
  -h, --help       show this help message and exit
  --config CONFIG  path to the JSON config file
  --out OUT        write the report/CSV to this path
  --k K            wavenumber
""",
    "sweep": """\
usage: yring sweep [-h] --config CONFIG [--out OUT] [--k-min K_MIN]
                   [--k-max K_MAX] [--n N]

options:
  -h, --help       show this help message and exit
  --config CONFIG  path to the JSON config file
  --out OUT        write the report/CSV to this path
  --k-min K_MIN    range start
  --k-max K_MAX    range end
  --n N            number of grid points
""",
    "find": """\
usage: yring find [-h] --config CONFIG [--out OUT] [--k-min K_MIN]
                  [--k-max K_MAX] [--n N] [--tol TOL]
                  [--kind {transmission,reflection}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       path to the JSON config file
  --out OUT             write the report/CSV to this path
  --k-min K_MIN         range start
  --k-max K_MAX         range end
  --n N                 scan points
  --tol TOL             probability threshold
  --kind {transmission,reflection}
                        which probability must vanish
""",
    "check": """\
usage: yring check [-h] --config CONFIG [--out OUT]

options:
  -h, --help       show this help message and exit
  --config CONFIG  path to the JSON config file
  --out OUT        write the report/CSV to this path
""",
}


@pytest.mark.parametrize("command", list(HELP_SCREENS))
def test_help_screen(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main([command, "--help"] if command else ["--help"])
    assert err.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == HELP_SCREENS[command]
    assert captured.err == ""


SHIPPED_CFGS = [SYMMETRIC_CFG, ANTISYMMETRIC_CFG, GENERAL_CFG]


class TestOutContract:
    """--out receives the bytes stdout would; find alone writes CSV there."""

    @pytest.mark.parametrize("cfg", SHIPPED_CFGS)
    @pytest.mark.parametrize("command", ["junction", "ring", "sweep", "check"])
    def test_out_file_equals_stdout(self, tmp_path, capsys, command, cfg):
        code = main([command, "--config", cfg])
        stdout = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main([command, "--config", cfg, "--out", str(out)]) == code == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("cfg", SHIPPED_CFGS)
    @pytest.mark.parametrize("kind", ["transmission", "reflection"])
    def test_find_out_is_csv(self, tmp_path, capsys, kind, cfg):
        argv = ["find", "--config", cfg, "--kind", kind, "--k-min", "0.5", "--k-max", "7"]
        assert main(argv) == 0
        report = capsys.readouterr().out.splitlines()
        out = tmp_path / "found.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        header, *rows = out.read_text().splitlines()
        assert header == "k_star,kind,residual"
        assert report[0].startswith(f"resonances (kind={kind}) in [0.5, 7]: {len(rows)} found")
        for line, row in zip(report[1:], rows, strict=True):
            k_star, row_kind, _ = row.split(",")
            assert row_kind == kind
            assert line.startswith(f"k* = {float(k_star):.15g}   ")

    def test_failed_command_leaves_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "kept.txt"
        out.write_text("earlier result\n")
        assert main(["ring", "--config", SYMMETRIC_CFG, "--k", "-1", "--out", str(out)]) == 2
        assert out.read_text() == "earlier result\n"

    @pytest.mark.parametrize("command, flag, key, value", [
        ("ring", "--k", "k", 1.3),
        ("junction", "--k", "k", 1.3),
        ("junction", "--junction", "junction", "right_node"),
        ("sweep", "--k-min", "k_min", 2.0),
        ("sweep", "--k-max", "k_max", 3.0),
        ("sweep", "--n", "n", 7),
        ("find", "--n", "n", 300),
        ("find", "--tol", "tol", 1e-6),
        ("find", "--kind", "kind", "reflection"),
    ])
    def test_flag_overrides_task_value(self, tmp_path, capsys, command, flag, key, value):
        # the task holds a value the command would reject, so only an override succeeds
        doc = json.loads(Path(GENERAL_CFG).read_text())
        doc["task"][key] = "unusable"
        argv = [command, "--config", write_config(tmp_path, doc, "bad.json")]
        assert main(argv) == 2
        assert f"task.{key}" in capsys.readouterr().err
        assert main(argv + [flag, str(value)]) == 0
        overridden = capsys.readouterr().out
        doc["task"][key] = value
        assert main([command, "--config", write_config(tmp_path, doc, "good.json")]) == 0
        assert capsys.readouterr().out == overridden


class TestParserReuse:
    """main builds its parser once per process; each call's state is its own."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_find_kind_does_not_carry_over(self, tmp_path, capsys):
        doc = json.loads(Path(SYMMETRIC_CFG).read_text())
        del doc["task"]["kind"]
        cfg = write_config(tmp_path, doc)
        assert main(["find", "--config", cfg, "--kind", "reflection"]) == 0
        capsys.readouterr()
        assert main(["find", "--config", cfg]) == 2
        assert "task.kind: required" in capsys.readouterr().err

    def test_ring_k_does_not_carry_over(self, capsys):
        task_k = json.loads(Path(GENERAL_CFG).read_text())["task"]["k"]
        assert main(["ring", "--config", GENERAL_CFG, "--k", "1.3"]) == 0
        assert "k = 1.3\n" in capsys.readouterr().out
        assert main(["ring", "--config", GENERAL_CFG]) == 0
        assert f"k = {task_k:.12g}\n" in capsys.readouterr().out

    def test_parse_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ring"])  # --config missing
        assert err.value.code == 2
        capsys.readouterr()
        argv = ["ring", "--config", ANTISYMMETRIC_CFG, "--k", "2.2"]
        assert main(argv) == 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ))
        fresh = subprocess.run([sys.executable, "-m", "yring.cli", *argv],
                               capture_output=True, text=True, env=env, check=True)
        assert capsys.readouterr().out == fresh.stdout


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--config", SYMMETRIC_CFG, "--n", "20000"],
            ["find", "--config", ANTISYMMETRIC_CFG, "--kind", "transmission", "--k-max", "2700",
             "--n", "20000"],
        ],
        ids=["sweep", "find"],
    )
    def test_reader_closing_early_ends_quietly(self, argv):
        # `yring sweep ... | head -1`: exit 128 + SIGPIPE, nothing on stderr.
        # Both outputs exceed a pipe's 64 KiB, so the command is still
        # writing when the reader goes, whatever the buffering.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ))
        proc = subprocess.Popen([sys.executable, "-m", "yring.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert first and err == b""
