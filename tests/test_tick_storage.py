"""Geometry stored as int64 ticks, checked against per-position ``Fraction`` references.

`oracles.FractionGeometry` keeps each position as its own ``Fraction`` and
never forms a common denominator, so every property below compares the
tick storage with an independent computation of the same set.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import FractionGeometry, colocation_message, joint_aperture

from fdarray.cli import main as cli_main
from fdarray.geometry import ArrayGeometry, ColocatedAntennaError, FullDuplexLayout

SETTINGS = settings(max_examples=150, deadline=None)

# each side's denominator fits int64 ticks; their lcm, about 1e21, does not
PRIME_LAYOUT = {"tx": ["1/9999991"], "rx": ["2/9999973", "3/9999971"]}


def fits_ticks(ref: FractionGeometry) -> bool:
    """Whether the reference set's ticks and denominator stay below 2**62."""
    return max(abs(p) * ref.denominator for p in ref.positions + (1,)) < 2**62


@st.composite
def rational_sets(draw, max_size=15):
    """Up to max_size distinct sorted rationals in [-1e6, 1e6]; denominators up to a drawn 1..60."""
    q_max = draw(st.integers(1, 60))
    value = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, q_max))
    values = sorted(draw(st.sets(value, min_size=1, max_size=max_size)))
    assume(fits_ticks(FractionGeometry(values)))  # up to 15 distinct denominators can overflow
    return values


@st.composite
def dyadic_sets(draw):
    """Distinct multiples of 2**-k, k in 0..8: exact as float64, integers when k = 0."""
    k = draw(st.integers(0, 8))
    numerators = draw(st.sets(st.integers(-10**6, 10**6), min_size=1, max_size=15))
    return [Fraction(m, 2**k) for m in numerators]


nonzero_factors = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 50))


def test_the_joint_tick_limit_is_checked_where_the_sides_meet(tmp_path, capsys):
    geo = tmp_path / "primes.json"
    geo.write_text(json.dumps(PRIME_LAYOUT))
    assert cli_main(["si", "--geometry", str(geo), "-o", str(tmp_path / "m.csv")]) == 2
    assert "common denominator 999993500012869992953" in capsys.readouterr().err
    # one side alone fits, so its beampattern needs no joint denominator
    assert cli_main(["beampattern", "--geometry", str(geo), "--side", "tx", "-o", str(tmp_path / "b.csv")]) == 0


def test_one_side_past_the_tick_limit_fails_at_construction():
    with pytest.raises(ValueError, match=r"common denominator 2, limit 2\*\*62"):
        ArrayGeometry([Fraction(2**62 + 1, 2)])
    with pytest.raises(ValueError, match=r"tx side: positions do not fit int64 ticks: common denominator 2"):
        FullDuplexLayout(tx=[Fraction(2**62 + 1, 2)], rx=[0])
    g = ArrayGeometry([0, 1])
    with pytest.raises(ValueError, match="common denominator 1,"):
        g.shifted(2**62)
    with pytest.raises(ValueError, match="common denominator 2,"):
        g.scaled(Fraction(2**62 + 1, 2))


def test_shift_and_scale_reduce_before_forming_ticks():
    # the unreduced denominators 2**80 and 2**40 * 3**30 would not fit int64
    g = ArrayGeometry([Fraction(1, 2**40), Fraction(3, 2**40)])
    assert g.shifted(Fraction(1, 2**40)) == ArrayGeometry([Fraction(1, 2**39), Fraction(1, 2**38)])
    assert g.scaled(2**50).positions == (2**10, 3 * 2**10)
    assert g.scaled(Fraction(2**40, 3**30)).denom == 3**30


def test_equal_ticks_over_different_denominators_differ():
    assert ArrayGeometry([1, 2]) != ArrayGeometry([Fraction(1, 2), 1])
    assert ArrayGeometry([1, 2]) != (1, 2)


@SETTINGS
@given(rational_sets())
def test_positions_match_fraction_reference(values):
    g, ref = ArrayGeometry(values[::-1]), FractionGeometry(values)
    assert g.positions == ref.positions
    assert {type(p) for p in g.positions} == {int if ref.is_integer else Fraction}
    assert list(g) == list(ref.positions) and len(g) == len(ref.positions)
    assert g.denom == ref.denominator
    assert g.ticks.dtype == np.int64 and not g.ticks.flags.writeable


@SETTINGS
@given(rational_sets(), rational_sets(), rational_sets(max_size=3), st.booleans())
def test_layouts_match_fraction_reference(tx, rx, shared, collide):
    if collide:
        tx, rx = sorted(set(tx) | set(shared)), sorted(set(rx) | set(shared))
    ref_tx, ref_rx = FractionGeometry(tx), FractionGeometry(rx)
    assume(fits_ticks(ref_tx) and fits_ticks(ref_rx))
    message = colocation_message(ref_tx, ref_rx)
    if message is not None:
        with pytest.raises(ColocatedAntennaError) as err:
            FullDuplexLayout(tx=tx, rx=rx)
        assert str(err.value) == message
        return
    layout = FullDuplexLayout(tx=tx, rx=rx)
    assert layout.joint_aperture == joint_aperture(ref_tx, ref_rx)


@SETTINGS
@given(rational_sets(), st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60)), nonzero_factors)
def test_shift_and_scale_match_fraction_reference(values, offset, factor):
    g, ref = ArrayGeometry(values), FractionGeometry(values)
    for move, by in (("shifted", offset), ("scaled", factor)):
        want = getattr(ref, move)(by)
        if not fits_ticks(want):
            with pytest.raises(ValueError, match=f"common denominator {want.denominator},"):
                getattr(g, move)(by)
            continue
        got = getattr(g, move)(by)
        assert got.positions == want.positions
        assert got.denom == want.denominator
        assert got == ArrayGeometry(want.positions) and hash(got) == hash(ArrayGeometry(want.positions))
    if fits_ticks(ref.scaled(3)):
        back = g.scaled(3).scaled(Fraction(1, 3))
        assert back == g and hash(back) == hash(g)


@SETTINGS
@given(dyadic_sets(), st.randoms())
def test_one_set_in_every_input_form_is_one_geometry(values, rnd):
    forms = [values, [str(p) for p in values], [float(p) for p in values]]
    if all(p.denominator == 1 for p in values):
        forms += [[int(p) for p in values], np.array([int(p) for p in values])]
    geometries = []
    for form in forms:
        form = list(form)
        rnd.shuffle(form)
        geometries.append(ArrayGeometry(form))
    first = geometries[0]
    assert all(g == first and hash(g) == hash(first) for g in geometries)
    assert len(set(geometries)) == 1


@SETTINGS
@given(rational_sets(), st.data())
def test_duplicates_are_reported_like_the_reference(values, data):
    repeated = values + data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))
    with pytest.raises(ValueError) as want:
        FractionGeometry(repeated)
    with pytest.raises(ValueError) as got:
        ArrayGeometry(repeated)
    assert str(got.value) == str(want.value)
