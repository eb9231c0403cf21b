from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdarray.files import layout_from_dict, layout_to_dict, load_layout, save_layout
from fdarray.geometry import (
    ArrayGeometry,
    ColocatedAntennaError,
    FullDuplexLayout,
    ascii_sketch,
    generate_interleaved,
    generate_nested,
    generate_partitioned,
    parse_position,
    solve_interleaved_spacing,
    solve_nested_params,
    solve_partitioned_gap,
    validate,
)


def ints(geometry):
    return [int(p) for p in geometry.positions]


def test_partitioned_reference_layout():
    lay = generate_partitioned(11, 0)
    assert ints(lay.rx) == list(range(11))
    assert ints(lay.tx) == list(range(11, 22))
    assert lay.joint_aperture == 21


def test_partitioned_small_cases():
    lay = generate_partitioned(1, 0)
    assert ints(lay.rx) == [0] and ints(lay.tx) == [1]

    lay = generate_partitioned(2, 5)
    assert ints(lay.rx) == [0, 1] and ints(lay.tx) == [7, 8]


def test_partitioned_gap_and_aperture_identities():
    for n in (1, 2, 5, 11, 32):
        for delta1 in (0, 1, 5, 23):
            lay = generate_partitioned(n, delta1)
            assert len(lay.tx) == len(lay.rx) == n
            assert lay.tx.positions[0] - lay.rx.positions[-1] == delta1 + 1
            assert lay.joint_aperture == 2 * n - 1 + delta1
            assert validate(lay).ok


def test_interleaved_reference_layout():
    lay = generate_interleaved(11, 1)
    assert ints(lay.rx) == list(range(0, 21, 2))
    assert ints(lay.tx) == list(range(1, 22, 2))


def test_interleaved_small_and_aperture():
    lay = generate_interleaved(1, 3)
    assert ints(lay.rx) == [0] and ints(lay.tx) == [3]
    assert generate_interleaved(11, 2).joint_aperture == 42


def test_interleaved_strict_alternation():
    for n in (1, 2, 7, 16):
        for delta2 in (1, 2, 5):
            lay = generate_interleaved(n, delta2)
            merged = sorted(
                [(p, "R") for p in lay.rx.positions] + [(p, "T") for p in lay.tx.positions]
            )
            tags = "".join(tag for _, tag in merged)
            assert tags == "RT" * n
            assert lay.joint_aperture == delta2 * (2 * n - 1)
            assert validate(lay).ok


def test_nested_reference_layout():
    lay = generate_nested(6, 5, 3)
    assert ints(lay.rx) == [0, 1, 2, 3, 4, 5, 11, 17, 23, 29, 35]
    assert ints(lay.tx) == [8, 14, 20, 26, 32, 38, 39, 40, 41, 42, 43]
    assert lay.joint_aperture == 43
    assert validate(lay).ok


def test_nested_minimal_case_matches_interleaved():
    lay = generate_nested(1, 1, 1)
    assert ints(lay.rx) == [0, 2]
    assert ints(lay.tx) == [1, 3]
    other = generate_interleaved(2, 1)
    assert lay.rx.positions == other.rx.positions
    assert lay.tx.positions == other.tx.positions


def test_nested_mirror_structure():
    for m1, m2, delta3 in [(1, 1, 1), (6, 5, 3), (4, 4, 2), (3, 7, 1)]:
        lay = generate_nested(m1, m2, delta3)
        assert len(lay.rx) == len(lay.tx) == m1 + m2
        top = lay.rx.positions[-1]
        shift = m1 - 1 + delta3
        mirrored = sorted(top - p + shift for p in lay.rx.positions)
        assert list(lay.tx.positions) == mirrored
        assert validate(lay).ok


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        generate_partitioned(0, 0)
    with pytest.raises(ValueError):
        generate_partitioned(3, -1)
    with pytest.raises(ValueError):
        generate_interleaved(3, 0)
    with pytest.raises(ValueError):
        generate_interleaved(0, 1)
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            generate_nested(*bad)


@pytest.mark.parametrize(
    "generate, args, name",
    [
        (generate_partitioned, (3.5,), "n"),
        (generate_nested, (2.5, 2, 1), "m1"),
        (generate_partitioned, (4, 0.5), "delta1"),
        (generate_nested, (True, 2, 1), "m1"),
    ],
    ids=["partitioned-half-n", "nested-half-m1", "partitioned-half-gap", "nested-bool-m1"],
)
def test_generators_reject_non_integer_sizes(generate, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        generate(*args)


def test_generators_take_numpy_integers():
    assert generate_partitioned(np.int64(3), np.int32(1)) == generate_partitioned(3, 1)
    assert generate_nested(*np.array([2, 2, 1])) == generate_nested(2, 2, 1)


def test_array_geometry_invariants():
    g = ArrayGeometry((Fraction(5), Fraction(1), Fraction(3)))
    assert [int(p) for p in g.positions] == [1, 3, 5]
    with pytest.raises(ValueError):
        ArrayGeometry((1, 1, 2))
    with pytest.raises(ValueError):
        ArrayGeometry(())


def test_non_finite_and_boolean_positions_are_rejected():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="must be finite"):
            ArrayGeometry((bad,))
    with pytest.raises(TypeError, match="cannot interpret True"):
        ArrayGeometry((0, True))
    # True is an int, but not a position
    assert validate([True], [0]).errors == (
        "tx position True is not a number: cannot interpret True as an antenna position",
    )


def test_parse_position_rejects_huge_exponents_without_building_them():
    assert parse_position("1/3") == Fraction(1, 3)
    assert parse_position(" -2.5e-3 ") == Fraction(-1, 400)
    assert parse_position("5" + "0" * 60 + "e-60") == 5
    assert parse_position("1e60") == 10**60  # too large for ticks, left to position_ticks
    assert parse_position("0e999999999") == parse_position("-0.0e-999999999") == 0
    for bad in ("1e999999999", "1e-999999999", "-2.5E+1_000_000"):
        with pytest.raises(ValueError, match="does not fit int64 ticks"):
            parse_position(bad)
    with pytest.raises(ValueError, match="Exceeds the limit"):
        parse_position("1e" + "9" * 5000)
    for bad in ("abc", ".", "e5", "0x10", "1e5e5"):
        with pytest.raises(ValueError, match="Invalid literal"):
            parse_position(bad)
    with pytest.raises(ValueError, match="zero denominator"):
        ArrayGeometry(("1/0",))
    assert validate(["1/0"], [1]).errors == (
        "tx position '1/0' is not a number: position '1/0' has a zero denominator",
    )


def test_set_scaling_and_translation():
    g = ArrayGeometry((0, 1, 3))
    assert [int(p) for p in g.scaled(2).positions] == [0, 2, 6]
    assert [int(p) for p in g.shifted(4).positions] == [4, 5, 7]
    # c*(X + a) on an explicit small set
    assert [int(p) for p in g.shifted(1).scaled(3).positions] == [3, 6, 12]
    half = g.scaled(Fraction(1, 2))
    assert half.positions == (Fraction(0), Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ValueError):
        g.scaled(0)


def test_layout_rejects_overlap():
    with pytest.raises(ColocatedAntennaError):
        FullDuplexLayout(tx=ArrayGeometry((0, 2)), rx=ArrayGeometry((2, 3)))


def test_validate_reports():
    bad = validate([0], [0])
    assert not bad.ok
    assert any("colocated" in e and "0" in e for e in bad.errors)

    good = validate([2, 3], [0, 1])
    assert good.ok and not good.errors

    assert validate(generate_nested(6, 5, 3)).ok

    dup = validate([1, 1, 2], [0])
    assert any("duplicate tx" in e for e in dup.errors)

    empty = validate([], [0])
    assert any("no antennas" in e for e in empty.errors)


def test_validate_rejects_a_lone_position_list():
    for lone in ([0, 1], ArrayGeometry((0, 1)), "01"):
        with pytest.raises(TypeError, match="FullDuplexLayout alone or tx and rx positions"):
            validate(lone)


def test_validate_reports_unparseable_positions():
    report = validate([0, "x"], [1])
    assert report.errors == ("tx position 'x' is not a number: Invalid literal for Fraction: 'x'",)
    assert not report.notes
    report = validate([0], [None, "1/0", float("nan"), float("inf"), "2"])
    assert len(report.errors) == 4
    assert all(e.startswith("rx position ") and "is not a number" in e for e in report.errors)
    # the parseable positions are still checked
    report = validate(["x", 1, 1], [1])
    assert any("duplicate tx" in e for e in report.errors)
    assert any("colocated" in e for e in report.errors)


@pytest.mark.parametrize("side", ["45", "", b"\x01\x02", bytearray(b"\x03"), 5, 2.5, None])
def test_a_side_that_is_no_iterable_of_positions_is_rejected(side):
    message = f"expected an iterable of antenna positions, got {type(side).__name__}"
    with pytest.raises(TypeError) as built:
        ArrayGeometry(side)
    assert str(built.value) == message
    with pytest.raises(TypeError) as built:
        FullDuplexLayout(side, [0])
    assert str(built.value) == f"tx side: {message}"
    assert validate(side, [0]).errors == (f"tx side: {message}",)
    if side is not None:  # validate(tx) alone takes a layout
        assert validate([0, 1], side).errors == (f"rx side: {message}",)


def test_validate_reports_sides_past_the_tick_limit():
    # the constructors reject both; validate reports their message as a side error
    for tx in ([2**62], ["1/4611686018427387905"]):
        report = validate(tx, [0])
        assert not report.ok and not report.notes
        with pytest.raises(ValueError) as built:
            FullDuplexLayout(tx, [0])
        assert report.errors == (str(built.value),)
        assert report.errors[0].startswith("tx side: positions do not fit int64 ticks")
    assert validate([0], [-(2**62) + 1, 2**62 - 1]).ok


# positions drawn from small pools, so duplicates and shared Tx/Rx values are common
position_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**62 - 1, 2**62, -(2**62) + 1, -(2**62), 2**63]),
    st.builds("{}/{}".format, st.integers(-3, 3), st.sampled_from([1, 2, 3, 2**31 - 1, 2**61 - 1, 2**62 + 1])),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 2**64)),
    st.fractions(max_denominator=4),
    st.sampled_from([0.5, -1.0, 1e-300, 2.0**62, float("nan"), float("inf")]),
    st.booleans(),
    st.sampled_from([None, "x", "1/0", 1j, [1], "1e999999999"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(position_values, max_size=5), st.lists(position_values, max_size=5))
def test_validate_is_ok_exactly_when_the_layout_builds(tx, rx):
    try:
        FullDuplexLayout(tx, rx)
        builds = True
    except (TypeError, ValueError):
        builds = False
    assert validate(tx, rx).ok == builds


# something that is no iterable of antenna positions
no_sides = st.one_of(st.sampled_from(["45", "", "1/2", b"12", bytearray(b"3")]), st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.one_of(no_sides, st.none()), st.lists(position_values, max_size=5) | no_sides),
    st.tuples(st.lists(position_values, max_size=5), no_sides),
))
def test_validate_reports_a_side_that_is_no_iterable_of_positions(sides):
    # validate(None, rx) is no layout either: it reports, never raises
    tx, rx = sides
    with pytest.raises((TypeError, ValueError)):
        FullDuplexLayout(tx, rx)
    assert not validate(tx, rx).ok


def test_layout_json_round_trip(tmp_path):
    lay = generate_nested(6, 5, 3)
    path = tmp_path / "nested.json"
    save_layout(lay, path)
    loaded = load_layout(path)
    assert loaded.tx.positions == lay.tx.positions
    assert loaded.rx.positions == lay.rx.positions
    assert loaded.label == lay.label

    doc = layout_to_dict(lay)
    assert doc["units"] == "half-wavelength"
    assert doc["tx"] == ints(lay.tx)


def test_layout_json_decimal_positions_are_exact():
    lay = layout_from_dict({"label": "", "tx": [Fraction("0.5")], "rx": [0], "units": "half-wavelength"})
    assert lay.tx.positions == (Fraction(1, 2),)


def test_layout_json_validation(tmp_path):
    with pytest.raises(ColocatedAntennaError):
        layout_from_dict({"tx": [0], "rx": [0]})
    with pytest.raises(ValueError):
        layout_from_dict({"tx": [1, 1], "rx": [0]})
    with pytest.raises(ValueError):
        layout_from_dict({"tx": [1], "rx": [0], "units": "meters"})
    with pytest.raises(ValueError):
        layout_from_dict({"rx": [0]})

    path = tmp_path / "bad.json"
    path.write_text('{"tx": [0.5], "rx": [0], "units": "half-wavelength"}')
    assert load_layout(path).tx.positions == (Fraction(1, 2),)


def test_ascii_sketch():
    lay = generate_partitioned(2, 1)
    assert ascii_sketch(lay) == "RR.TT"
    wide = generate_interleaved(2, 200)
    assert ascii_sketch(wide).startswith("rx=[")


def test_aperture_rule_solvers():
    delta1, clamped = solve_partitioned_gap(11, 44.0)
    assert (delta1, clamped) == (23, False)
    assert solve_partitioned_gap(11, 5.0) == (0, True)

    delta2, clamped = solve_interleaved_spacing(11, 42.0)
    assert (delta2, clamped) == (2, False)
    assert solve_interleaved_spacing(11, 3.0) == (1, True)

    m1, m2, delta3, clamped = solve_nested_params(11, 43.0)
    assert (m1, m2, delta3, clamped) == (6, 5, 3, False)
    assert generate_nested(m1, m2, delta3).joint_aperture == 43
    with pytest.raises(ValueError):
        solve_nested_params(1, 10.0)
