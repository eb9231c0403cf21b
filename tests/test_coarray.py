import math
import random
from fractions import Fraction

import pytest

from oracles import enumerate_sum_coarray

from fdarray.coarray import sum_coarray
from fdarray.experiments import ApertureRule, coarray_scaling, loglog_slope
from fdarray.files import write_coarray_csv
from fdarray.geometry import (
    ArrayGeometry,
    FullDuplexLayout,
    generate_interleaved,
    generate_nested,
    generate_partitioned,
    solve_nested_params,
)


def layout(tx, rx):
    return FullDuplexLayout(tx=ArrayGeometry(tuple(tx)), rx=ArrayGeometry(tuple(rx)))


def test_two_by_two_reference():
    ca = sum_coarray(layout(tx=[2, 3], rx=[0, 1]))
    assert ca.sums == (2, 3, 4)
    assert ca.multiplicities == (1, 2, 1)
    assert ca.contiguous_len == 3
    assert ca.as_dict() == {2: 1, 3: 2, 4: 1}


def test_single_pair():
    ca = sum_coarray(layout(tx=[5], rx=[0]))
    assert ca.sums == (5,)
    assert ca.contiguous_len == 1


def test_nested_reference_contiguity():
    lay = generate_nested(6, 5, 3)
    ca = sum_coarray(lay)
    sums, mults, best = enumerate_sum_coarray(
        [int(p) for p in lay.tx], [int(p) for p in lay.rx]
    )
    assert list(ca.sums) == sums
    assert list(ca.multiplicities) == mults
    assert ca.contiguous_len == best == 71
    assert ca.contiguous_len >= 2 * (6 - 1) + 1


def test_brute_force_equivalence_random_and_families():
    rng = random.Random(19)
    layouts = [generate_partitioned(32, 3), generate_interleaved(32, 2), generate_nested(20, 12, 4)]
    for _ in range(15):
        rx = sorted(rng.sample(range(0, 200), rng.randint(1, 64)))
        pool = [p for p in range(0, 200) if p not in rx]
        tx = sorted(rng.sample(pool, rng.randint(1, 64)))
        layouts.append(layout(tx=tx, rx=rx))
    for lay in layouts:
        ca = sum_coarray(lay)
        sums, mults, best = enumerate_sum_coarray(list(lay.tx), list(lay.rx))
        assert list(ca.sums) == sums
        assert list(ca.multiplicities) == mults
        assert ca.contiguous_len == best
        assert sum(ca.multiplicities) == len(lay.tx) * len(lay.rx)
        assert ca.contiguous_len <= len(ca.sums)


def test_translation_shifts_sums():
    base = layout(tx=[2, 3], rx=[0, 1])
    shifted = layout(tx=[9, 10], rx=[0, 1])
    a = sum_coarray(base)
    b = sum_coarray(shifted)
    assert [s + 7 for s in a.sums] == list(b.sums)
    assert a.multiplicities == b.multiplicities
    assert a.contiguous_len == b.contiguous_len


def test_nested_multiplicity_profile_is_symmetric():
    for params in [(6, 5, 3), (4, 4, 2), (3, 2, 1)]:
        ca = sum_coarray(generate_nested(*params))
        assert ca.multiplicities == ca.multiplicities[::-1]


def test_non_integer_layout_reports_no_contiguity():
    ca = sum_coarray(layout(tx=[Fraction(1, 2), Fraction(3, 2)], rx=[0, 1]))
    assert ca.contiguous_len is None
    assert ca.sums == (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
    assert ca.multiplicities == (1, 2, 1)


def test_scaling_quadratic_rule_slope():
    table = coarray_scaling(range(10, 61, 10))
    assert 1.7 <= table.slope <= 2.3
    ns = [row.n for row in table.rows]
    assert ns == sorted(ns)
    # every row re-checks against the enumeration oracle
    for row in table.rows:
        lay = generate_nested(row.m1, row.m2, row.delta3)
        _, _, best = enumerate_sum_coarray(list(lay.tx), list(lay.rx))
        assert row.contiguous_len == best
        assert row.aperture == int(lay.joint_aperture)


def test_scaling_default_is_the_quadratic_rule():
    target = ApertureRule(kind="quadratic").target
    # (0.26*n)*n and 0.26*(n*n) differ in the last ulp for some n ...
    assert sum(0.26 * n * n != target(n) for n in range(2, 5001)) == 1007
    # ... but never in the solved nested parameters
    for n in range(2, 5001):
        assert solve_nested_params(n, 0.26 * n * n) == solve_nested_params(n, target(n))


def test_scaling_saturates_under_constant_aperture():
    table = coarray_scaling(range(20, 61, 10), target_aperture=lambda n: 120.0)
    assert abs(table.slope) < 0.5
    small = coarray_scaling([2, 3])
    assert all(row.contiguous_len >= 1 for row in small.rows)


def test_scaling_rejects_empty():
    with pytest.raises(ValueError):
        coarray_scaling([])


def test_scaling_rejects_repeated_and_non_integer_counts():
    with pytest.raises(ValueError, match="n_values must be distinct"):
        coarray_scaling([10, 10])
    for bad in ([10.7, 20], [True, 20]):
        with pytest.raises(ValueError, match="n_values must be integers"):
            coarray_scaling(bad)


def test_scaling_keeps_the_given_order():
    table = coarray_scaling([20, 10])
    assert [row.n for row in table.rows] == [20, 10]
    assert [(r.n, r.contiguous_len) for r in reversed(table.rows)] == [
        (r.n, r.contiguous_len) for r in coarray_scaling([10, 20]).rows
    ]


def test_scaling_rejects_non_finite_target():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            coarray_scaling([10, 20], target_aperture=lambda n: bad)


def test_loglog_slope_validation():
    with pytest.raises(ValueError):
        loglog_slope([1], [2])
    with pytest.raises(ValueError):
        loglog_slope([1, 2], [0, 3])
    with pytest.raises(ValueError, match="two distinct x values"):
        loglog_slope([10, 10], [29, 31])
    assert abs(loglog_slope([1, 2, 4], [3, 12, 48]) - 2.0) < 1e-12


def test_csv_exports(tmp_path):
    ca = sum_coarray(layout(tx=[2, 3], rx=[0, 1]))
    path = tmp_path / "ca.csv"
    write_coarray_csv(ca, path)
    assert path.read_text() == "sum,multiplicity\n2,1\n3,2\n4,1\n"

    rows = [(row.n, row.contiguous_len, row.aperture) for row in coarray_scaling([10, 20]).rows]
    assert rows == [(10, 29, 19), (20, 179, 102)]
