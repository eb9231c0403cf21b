"""Integer-tick limits: overflow is an explicit error, float-decimal layouts still work."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fdarray.beampattern import array_factor, beampattern
from fdarray.cli import main as cli_main
from fdarray.coarray import sum_coarray
from fdarray.files import load_layout, save_layout
from fdarray.geometry import (
    ArrayGeometry,
    FullDuplexLayout,
    generate_nested,
    position_ticks,
)
from fdarray.si_model import _quotients, distance_matrix, si_matrix

PRIMES = (9999991, 9999973, 9999971)
PRIME_TX = [Fraction(1, PRIMES[0])]
PRIME_RX = [Fraction(2, PRIMES[1]), Fraction(3, PRIMES[2])]
PRIME_DENOM = math.lcm(*PRIMES)


def test_position_ticks_are_exact():
    lay = FullDuplexLayout(tx=[Fraction(1, 2), 4], rx=[Fraction(-2, 3), 7])
    (tx, rx), denom = position_ticks(lay.tx, lay.rx)
    assert denom == 6
    assert tx.dtype == rx.dtype == np.int64
    assert tx.tolist() == [3, 24] and rx.tolist() == [-4, 42]


@pytest.mark.parametrize(
    "compute", [distance_matrix, lambda lay: si_matrix(lay, 1.0), sum_coarray],
    ids=["distance_matrix", "si_matrix", "sum_coarray"],
)
def test_tick_overflow_raises_naming_the_denominator(compute):
    assert PRIME_DENOM >= 2**62
    with pytest.raises(ValueError, match=f"common denominator {PRIME_DENOM}"):
        compute(FullDuplexLayout(tx=PRIME_TX, rx=PRIME_RX))
    # a small denominator with a position too far out overflows too
    with pytest.raises(ValueError, match="common denominator 2"):
        compute(FullDuplexLayout(tx=[Fraction(2**62 + 1, 2)], rx=[0]))


@pytest.mark.parametrize("command", ["si", "svd", "coarray"])
def test_cli_reports_tick_overflow_as_usage_error(command, tmp_path, capsys):
    geo = tmp_path / "primes.json"
    doc = {"tx": [str(p) for p in PRIME_TX], "rx": [str(p) for p in PRIME_RX]}
    geo.write_text(json.dumps(doc))
    code = cli_main([command, "--geometry", str(geo), "-o", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("fdarray: error:")
    assert str(PRIME_DENOM) in err


def test_beampattern_tick_overflow_raises_naming_the_denominator(tmp_path, capsys):
    # one side whose own positions overflow: beampattern reads one side only
    side = PRIME_TX + PRIME_RX
    with pytest.raises(ValueError, match=f"common denominator {PRIME_DENOM}"):
        beampattern(ArrayGeometry(side))
    with pytest.raises(ValueError, match="common denominator 2"):
        array_factor(ArrayGeometry([Fraction(2**62 + 1, 2), 0]), 0.0)
    geo = tmp_path / "primes.json"
    geo.write_text(json.dumps({"tx": ["5"], "rx": [str(p) for p in side]}))
    code = cli_main(["beampattern", "--geometry", str(geo), "-o", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("fdarray: error:")
    assert str(PRIME_DENOM) in err


def test_float_decimal_layouts_keep_working(tmp_path):
    exact = generate_nested(40, 40, 1)
    exact = FullDuplexLayout(
        tx=exact.tx.scaled(Fraction(1, 2)).shifted(Fraction(1, 3)),
        rx=exact.rx.scaled(Fraction(1, 2)).shifted(Fraction(1, 3)),
    )
    path = tmp_path / "thirds.json"
    save_layout(exact, path)
    lay = load_layout(path)
    dm = distance_matrix(lay)
    # decimal positions with 16 digits: a denominator above 2**53, ticks below 2**62
    assert 2**53 < dm.denom <= 10**16
    expected = [[float(Fraction(t, dm.denom)) for t in row] for row in dm.ticks.tolist()]
    assert np.array_equal(_quotients(dm.ticks, dm.denom), np.array(expected))
    assert np.all(np.isfinite(si_matrix(lay, 0.5).h))
    co = sum_coarray(lay)
    assert sum(co.multiplicities) == 80 * 80
