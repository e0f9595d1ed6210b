"""The vectorised '%.17g' renderer against CPython's own formatting.

`csv_rows` must return exactly the text of ``'%.17g' % v`` for every value,
and its fast path must decide nearly every value itself: a renderer that
sent everything to the fallback would pass the equality checks while
gaining nothing.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from yring import render
from yring.cli import main
from yring.render import csv_rows

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))
SRC = Path(__file__).resolve().parent.parent / "src"

#: Values per call, so the test's temporaries stay a few megabytes.
CHUNK = 50_000


def oracle(values: np.ndarray) -> str:
    return "".join(",".join(["%.17g" % v for v in row]) + "\n" for row in values.tolist())


def undecided(values: np.ndarray) -> np.ndarray:
    """Where the fast path leaves a value to the '%.17g' fallback."""
    out = np.empty((len(values), render._SLOT), np.uint8)
    return render._slots(render._tables(), values, out)


def in_table(values: np.ndarray) -> np.ndarray:
    a = np.abs(values)
    return ((a >= render._LOW) & (a < render._HIGH)) | (a == 0)


def assert_renders_each(values: np.ndarray) -> int:
    """One value per line equals '%.17g'; returns how many values fell back."""
    fallen = 0
    for start in range(0, len(values), CHUNK):
        chunk = values[start:start + CHUNK]
        assert csv_rows(chunk[:, None]) == oracle(chunk[:, None])
        fallen += int(undecided(chunk).sum())
    return fallen


def random_doubles(rng, n: int, exponents=(0, 2047)) -> np.ndarray:
    """Uniform random sign and mantissa bits, biased exponent drawn from the range."""
    bits = rng.integers(0, 2**52, n, dtype=np.uint64)
    bits |= rng.integers(*exponents, n).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    return bits.view(np.float64)


def neighbours(centres, ulps: int) -> np.ndarray:
    """Each centre and the doubles within `ulps` steps of it, both signs."""
    steps = np.arange(-ulps, ulps + 1, dtype=np.int64)
    bits = np.asarray(centres, dtype=np.float64).view(np.int64)[:, None] + steps
    values = bits.ravel().view(np.float64)
    return np.concatenate([values, -values])


class TestAgainstCPython:
    def test_random_bit_patterns_over_every_exponent(self):
        rng = np.random.default_rng(20261018)
        values = np.concatenate([
            random_doubles(rng, 400_000),  # the whole exponent range, inf and nan included
            random_doubles(rng, 20_000, (0, 1)),  # subnormals
        ])
        assert assert_renders_each(values) == int((~in_table(values)).sum())

    def test_signed_zeros(self):
        assert csv_rows(np.array([[0.0, -0.0], [-0.0, 0.0]])) == "0,-0\n-0,0\n"
        assert not undecided(np.array([0.0, -0.0])).any()

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{e}") for e in range(-300, 301)]
        values = neighbours(powers, 1)
        assert assert_renders_each(values) == int((~in_table(values)).sum())

    def test_notation_boundaries(self):
        # %g switches to exponent notation below 1e-4 and from 1e17 on; the
        # doubles a few ulps below each boundary round up onto it.
        values = neighbours([1e-5, 1e-4, 1e16, 1e17], 2000)
        assert assert_renders_each(values) == 0
        assert csv_rows(np.array([[1e-4, 1e-5, 1e16, 1e17]])) == "0.0001,1.0000000000000001e-05,10000000000000000,1e+17\n"

    def test_rounding_that_carries_into_the_next_power(self):
        for text, exponent in (("1e-79", -79), ("1e-176", -176)):
            x = float(text)
            assert Fraction(x) < Fraction(1, 10**-exponent)  # the double lies below the power
            assert csv_rows(np.array([[x]])) == text + "\n"
            assert not undecided(np.array([x])).any()

    def test_exponent_estimate_one_too_high(self):
        x = 9.9999999999999995e-08
        assert math.floor(math.log10(x)) == -7  # while x < 1e-7
        assert csv_rows(np.array([[x, -x]])) == "9.9999999999999995e-08,-9.9999999999999995e-08\n"
        assert not undecided(np.array([x])).any()

    def test_exact_ties_round_to_even(self):
        # k / 2**18 * 10**17 ends in exactly .5: CPython rounds to the even
        # neighbour, up for the first value and down for the second.
        values = np.array([26215 / 2**18, 26217 / 2**18])
        assert csv_rows(values[None, :]) == "0.10000228881835938,0.10000991821289062\n"
        assert not undecided(values).any()

    def test_table_edges(self):
        values = neighbours([render._LOW, render._HIGH], 1000)
        fallen = assert_renders_each(values)
        assert fallen == int((~in_table(values)).sum()) and 0 < fallen < len(values)

    def test_fast_path_decides_ordinary_values(self):
        rng = np.random.default_rng(7)
        uniform = rng.uniform(0.0, 1.0, 300_000)
        scaled = rng.uniform(-1.0, 1.0, 300_000) * 10.0 ** rng.uniform(-40.0, 40.0, 300_000)
        assert assert_renders_each(uniform) == 0
        assert assert_renders_each(scaled) == 0

    def test_rows_with_a_fallback_value_keep_their_place(self):
        values = np.array([[0.5, 1.25], [math.nan, 2.0], [1e-310, -math.inf], [3.0, 1e300], [-7.5, 0.0]])
        assert csv_rows(values) == oracle(values)
        assert undecided(values[:, 0]).tolist() == [False, True, True, False, False]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_fast_path_decides_every_shipped_sweep_value(path, tmp_path, monkeypatch):
    seen = []

    def spy(t, values, out):
        result = real(t, values, out)
        seen.append(result[~np.isnan(values)])
        return result

    real = render._slots
    monkeypatch.setattr(render, "_slots", spy)
    assert main(["sweep", "--config", str(path), "--n", "4096", "--out", str(tmp_path / "s.csv")]) == 0
    assert sum(map(len, seen)) == 4096 * 12
    assert not any(s.any() for s in seen)


def test_junction_loads_no_renderer():
    # Cold starts of the query commands pay neither for the module nor for its tables.
    code = (
        "import json, sys\n"
        "from yring import cli\n"
        "config = sys.argv[1]\n"
        "cli.main(['junction', '--config', config, '--k', '1.3'])\n"
        "loaded = ['yring.render' in sys.modules]\n"
        "cli.main(['sweep', '--config', config, '--n', '3'])\n"
        "loaded.append(sys.modules['yring.render']._tables.cache_info().currsize)\n"
        "print(json.dumps(loaded), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(CONFIG_DIR / "general_ring.json")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stderr) == [False, 1]
