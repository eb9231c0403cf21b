"""Sum co-array of a full-duplex layout and its contiguous virtual aperture.

The sum co-array is the multiset of pairwise Tx+Rx position sums; a long
run of consecutive integer sums acts like a contiguous virtual array for
active sensing, so its length tracks how many targets remain identifiable.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import FullDuplexLayout, position_ticks


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

    def as_dict(self) -> dict:
        return dict(zip(self.sums, self.multiplicities))


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
