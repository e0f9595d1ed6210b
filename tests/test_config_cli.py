import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from yring import cli
from yring.cli import main
from yring.config import ConfigError, load_config, parse_angle

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


class TestCheckCommand:
    @pytest.mark.parametrize("cfg", [SYMMETRIC_CFG, ANTISYMMETRIC_CFG, GENERAL_CFG])
    def test_shipped_configs_pass(self, cfg, capsys):
        assert main(["check", "--config", cfg]) == 0
        assert "all checks passed" in capsys.readouterr().out

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
