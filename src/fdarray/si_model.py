"""Spherical-wave self-interference channel synthesis and structure checks.

The channel entry for Rx antenna n and Tx antenna m at distance d (in
half-wavelength units) is ``rho * exp(j*pi*d) / d``, with d held exactly as
int64 ticks over the distances' smallest common denominator. When every
distance is whole that denominator is 1, and the phase factor collapses to
an exact sign (-1)**d, read from the tick parity, so such channels are
float64 matrices with exact signs.

The entry is a function of the tick distance alone, so `si_matrix`
evaluates the kernel once per tick value up to the largest distance and
gathers the matrix from that table. Where the largest distance dwarfs the
number of entries (layouts reloaded from float JSON over a 10**16
denominator), it evaluates the same kernel once per entry instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ColocatedAntennaError, FullDuplexLayout, position_ticks

SIGN_ALTERNATING = "alternating"
SIGN_UNIFORM = "uniform"
SIGN_MIXED = "mixed"
SIGN_COMPLEX = "complex"


@dataclass(frozen=True)
class DistanceMatrix:
    """Exact Tx-Rx distances as int64 ``ticks`` of 1/``denom``, their smallest common
    denominator (1 exactly when every distance is whole); rows index Rx, columns Tx."""

    ticks: np.ndarray
    denom: int


def _quotients(ticks: np.ndarray, denom: int) -> np.ndarray:
    """ticks / denom as float64, each rounded like ``float(Fraction(tick, denom))``."""
    if denom < 2**53 and ticks.max() < 2**53:
        return ticks / denom  # both operands exact in float64: a correctly rounded quotient
    return np.array([t / denom for t in ticks.ravel().tolist()], dtype=float).reshape(ticks.shape)


@dataclass(frozen=True)
class SIChannelMatrix:
    """Self-interference channel, float64 on the integer grid, with its exact distance matrix."""

    h: np.ndarray
    rho: float
    layout: FullDuplexLayout
    delta: DistanceMatrix


def as_matrix(matrix, dtype=None) -> np.ndarray:
    """2-D array of an SIChannelMatrix (its ``h``) or of any 2-D array-like.

    Raises ValueError on any other number of dimensions.
    """
    arr = np.asarray(matrix.h if isinstance(matrix, SIChannelMatrix) else matrix, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def numeric_matrix(matrix) -> np.ndarray:
    """`as_matrix` as float64 when its entries are exactly real, else complex128.

    The one real-or-complex rule of fdarray: boolean, integer and float
    entries become float64, anything else complex128, and a complex matrix
    whose imaginary parts are all zero becomes (a copy of) its float64 real
    part. Spectra, sign patterns and matrix CSV files all take it.
    """
    arr = as_matrix(matrix)
    arr = arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)
    return arr.real.copy() if arr.dtype.kind == "c" and not arr.imag.any() else arr


def distance_matrix(layout: FullDuplexLayout) -> DistanceMatrix:
    """Exact |d_rx[n] - d_tx[m]| matrix of a layout, over the distances'
    smallest common denominator.

    Raises
    ------
    ColocatedAntennaError
        If any distance is zero (cannot happen for a constructed layout,
        but guards hand-built inputs).
    ValueError
        If the positions do not fit int64 ticks (see `position_ticks`).
    """
    (tx, rx), denom = position_ticks(layout.tx, layout.rx)
    ticks = rx[:, None] - tx
    np.abs(ticks, out=ticks)
    if np.count_nonzero(ticks) < ticks.size:
        r = layout.rx.positions[ticks.min(axis=1).argmin()]
        raise ColocatedAntennaError(f"zero Tx-Rx distance at rx={r}")
    if denom > 1:  # rx[n] - tx[m] = (rx[n] - tx[0]) - (rx[0] - tx[0]) + (rx[0] - tx[m])
        g = math.gcd(denom, int(np.gcd.reduce(ticks[0])), int(np.gcd.reduce(ticks[:, 0])))
        if g > 1:
            ticks //= g
            denom //= g
    ticks.setflags(write=False)
    return DistanceMatrix(ticks=ticks, denom=denom)


def _parity(ticks: np.ndarray, denom: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Parity (0 or 1) of the whole part of each distance ticks / denom, and
    the mask of the fractional distances, None when ``denom == 1``.

    On the integer grid the parity is read from the ticks themselves,
    without a division.
    """
    if denom == 1:
        return ticks & 1, None
    whole, rest = np.divmod(ticks, denom)
    return whole & 1, rest != 0


def _kernel(ticks: np.ndarray, rho: float, denom: int) -> np.ndarray:
    """``rho * exp(j*pi*d) / d`` at the positive distances d = ticks / denom.

    d is rounded like ``float(Fraction(tick, denom))``. A whole distance
    gives the real value (-1)**d * rho / d, with its sign read from the
    parity; the result is float64 when ``denom == 1``, else complex128.
    """
    odd, frac = _parity(ticks, denom)
    d = ticks if denom == 1 else _quotients(ticks, denom)
    h = np.where(odd, -rho, rho) / d
    if frac is not None:
        h = h.astype(complex)
        h[frac] = rho * np.exp(1j * np.pi * d[frac]) / d[frac]
    return h


def _tabulates(span: int, ticks: np.ndarray, denom: int) -> bool:
    """True when one kernel table over the ticks 0..span, gathered by the
    distance ``ticks``, serves `si_matrix` better than one kernel call per
    entry.

    The table pays at spans up to half the entry count
    (``BENCH_27.json``, ``table_switch``) and below a 2**53 denominator.
    """
    return 2 * span <= ticks.size and denom < 2**53


def si_matrix(layout: FullDuplexLayout, rho: float = 1.0) -> SIChannelMatrix:
    """Spherical-wave SI channel matrix of a layout.

    Parameters
    ----------
    layout : FullDuplexLayout
    rho : float
        Finite positive scale factor. The model keeps it constant; any
        geometry dependence is the caller's business.

    Returns
    -------
    SIChannelMatrix
        Entry (n, m) equals ``rho * exp(j*pi*d)/d`` with d the exact
        Tx-Rx distance. Integer distances give real entries with sign
        (-1)**d; ``h`` is complex128 only if some distance is fractional.
    """
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got non-finite {rho}")
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    rho = float(rho)
    delta = distance_matrix(layout)
    t, q = delta.ticks, delta.denom
    span = int(max(t[0, -1], t[-1, 0]))  # both sides are sorted: the largest distance is in a corner
    if _tabulates(span, t, q):
        grid = np.arange(span + 1)
        grid[0] = 1  # no distance is zero, so this entry is never read
        h = _kernel(grid, rho, q)[t]
    else:
        h = _kernel(t, rho, q)
    h.setflags(write=False)
    return SIChannelMatrix(h=h, rho=rho, layout=layout, delta=delta)


def is_toeplitz(matrix) -> bool:
    """True when every diagonal is exactly constant.

    Accepts a DistanceMatrix (checked on exact ticks), an
    SIChannelMatrix, or any 2-D array-like.
    """
    arr = as_matrix(matrix.ticks if isinstance(matrix, DistanceMatrix) else matrix)
    return np.array_equal(arr[1:, 1:], arr[:-1, :-1])


def sign_pattern(h: SIChannelMatrix) -> str:
    """Classify the entry signs of an SI matrix.

    Returns
    -------
    str
        ``'complex'`` if the matrix is complex with a nonzero imaginary part;
        ``'uniform'`` if all entries are real and share one sign;
        ``'alternating'`` if entries are real and the sign of every entry
        is exactly (-1)**distance with both parities present;
        ``'mixed'`` otherwise.
    """
    re = numeric_matrix(h)
    if np.iscomplexobj(re):
        return SIGN_COMPLEX
    negative = re < 0
    below, above = np.count_nonzero(negative), np.count_nonzero(re > 0)
    if re.size in (below, above):
        return SIGN_UNIFORM
    if below + above < re.size:  # a zero or a NaN has no sign
        return SIGN_MIXED
    odd, frac = _parity(h.delta.ticks, h.delta.denom)
    return SIGN_ALTERNATING if frac is None and np.array_equal(negative, odd) else SIGN_MIXED
