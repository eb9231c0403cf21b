"""Sum co-array of a full-duplex layout and its contiguous virtual aperture.

The sum co-array is the multiset of pairwise Tx+Rx position sums; a long
run of consecutive integer sums acts like a contiguous virtual array for
active sensing, so its length tracks how many targets remain identifiable.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .experiments import RULE_QUADRATIC, ApertureRule
from .geometry import FullDuplexLayout, build_family_layout, position_ticks


@dataclass(frozen=True)
class SumCoarray:
    """Distinct pairwise Tx+Rx sums with per-sum pair counts.

    ``contiguous_len`` is the length of the longest run of consecutive
    integers among the sums; it is None when any sum leaves the integer
    grid (no grid semantics are invented for those). When every sum is an
    integer, ``sums`` holds ``int`` values, which compare and hash equal
    to the matching ``Fraction``; otherwise it holds ``Fraction`` values.
    """

    sums: tuple[int | Fraction, ...]
    multiplicities: tuple[int, ...]
    contiguous_len: int | None

    @property
    def n_sums(self) -> int:
        return len(self.sums)

    def as_dict(self) -> dict:
        return dict(zip(self.sums, self.multiplicities))


@dataclass(frozen=True)
class CoarrayScalingRow:
    n: int
    contiguous_len: int
    aperture: int
    m1: int
    m2: int
    delta3: int


@dataclass(frozen=True)
class CoarrayScalingTable:
    """contiguous_len per antenna count, with the fitted log-log growth rate."""

    rows: tuple[CoarrayScalingRow, ...]
    slope: float


def sum_coarray(layout: FullDuplexLayout) -> SumCoarray:
    """Exact sum co-array of a layout.

    Counts all n_tx * n_rx pairwise sums on int64 ticks (ValueError when
    the positions do not fit, see `position_ticks`); contiguity statistics
    are computed only when every sum is an integer.
    """
    (tx, rx), denom = position_ticks(layout.tx, layout.rx)
    ticks, counts = np.unique(tx[:, None] + rx[None, :], return_counts=True)
    whole, rest = np.divmod(ticks, denom)
    if rest.any():
        sums, contiguous = tuple(Fraction(t, denom) for t in ticks.tolist()), None
    else:
        # runs of consecutive integers end where the step is not 1
        ends = np.flatnonzero(np.diff(whole) != 1)
        sums = tuple(whole.tolist())
        contiguous = int(np.diff(ends, prepend=-1, append=whole.size - 1).max())
    return SumCoarray(sums=sums, multiplicities=tuple(counts.tolist()), contiguous_len=contiguous)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two points for a slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive values")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def coarray_scaling(n_values, target_aperture=None) -> CoarrayScalingTable:
    """Contiguous co-array length of nested layouts across antenna counts.

    For each N the nested family is built with the balanced split
    m1 = ceil(N/2), m2 = N - m1 and delta3 solved from the target
    aperture (default the quadratic `ApertureRule`, 0.26*N**2, under which
    the contiguous length grows roughly as N**2).

    Parameters
    ----------
    n_values : iterable of int
        Antenna counts per side, each >= 2.
    target_aperture : callable, optional
        Maps N to the desired joint aperture.

    Returns
    -------
    CoarrayScalingTable
    """
    if target_aperture is None:
        target_aperture = ApertureRule(kind=RULE_QUADRATIC).target
    rows = []
    for n in n_values:
        layout, params, _ = build_family_layout("nested", n, target_aperture(n))
        rows.append(
            CoarrayScalingRow(
                n=int(n),
                contiguous_len=int(sum_coarray(layout).contiguous_len),
                aperture=int(layout.joint_aperture),
                **dict(params),
            )
        )
    if not rows:
        raise ValueError("n_values must be nonempty")
    slope = loglog_slope([r.n for r in rows], [r.contiguous_len for r in rows])
    return CoarrayScalingTable(rows=tuple(rows), slope=slope)
