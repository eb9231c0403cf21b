"""Spherical-wave self-interference channel synthesis and structure checks.

The channel entry for Rx antenna n and Tx antenna m at distance d (in
half-wavelength units) is ``rho * exp(j*pi*d) / d``, with d held exactly as
int64 ticks over the layout's common denominator. On the integer grid the
phase factor collapses to an exact sign (-1)**d, read from the tick parity,
so integer-grid channels are float64 matrices with exact signs.
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
    """Exact Tx-Rx distances as int64 ``ticks`` of 1/``denom``; rows index Rx, columns Tx."""

    ticks: np.ndarray
    denom: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.ticks.shape

    def to_array(self) -> np.ndarray:
        """Distances as a float64 matrix, each rounded like ``float(Fraction)``."""
        d, q = self.ticks, self.denom
        if q < 2**53 and d.max() < 2**53:
            return d / q  # both operands exact in float64: a correctly rounded quotient
        return np.array([t / q for t in d.ravel().tolist()], dtype=float).reshape(d.shape)


@dataclass(frozen=True)
class SIChannelMatrix:
    """Self-interference channel, float64 on the integer grid, with its exact distance matrix."""

    h: np.ndarray
    rho: float
    layout: FullDuplexLayout
    delta: DistanceMatrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.h.shape


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
    """Exact |d_rx[n] - d_tx[m]| matrix of a layout.

    Raises
    ------
    ColocatedAntennaError
        If any distance is zero (cannot happen for a constructed layout,
        but guards hand-built inputs).
    ValueError
        If the positions do not fit int64 ticks (see `position_ticks`).
    """
    (tx, rx), denom = position_ticks(layout.tx, layout.rx)
    ticks = np.abs(rx[:, None] - tx[None, :])
    if not ticks.all():
        r = layout.rx.positions[ticks.min(axis=1).argmin()]
        raise ColocatedAntennaError(f"zero Tx-Rx distance at rx={r}")
    ticks.setflags(write=False)
    return DistanceMatrix(ticks=ticks, denom=denom)


def _parity(delta: DistanceMatrix) -> tuple[np.ndarray, np.ndarray | None]:
    """Parity (0 or 1) of each distance's whole part, and the mask of the
    fractional distances, None when there is none.

    On the integer grid (``denom == 1``) the parity is read from the ticks
    themselves, without a division.
    """
    if delta.denom == 1:
        return delta.ticks & 1, None
    whole, rest = np.divmod(delta.ticks, delta.denom)
    frac = rest != 0
    return whole & 1, frac if frac.any() else None


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
    odd, frac = _parity(delta)
    df = delta.ticks if delta.denom == 1 else delta.to_array()
    h = np.where(odd, -rho, rho) / df
    if frac is not None:
        h = h.astype(complex)
        h[frac] = rho * np.exp(1j * np.pi * df[frac]) / df[frac]
    h.setflags(write=False)
    return SIChannelMatrix(h=h, rho=rho, layout=layout, delta=delta)


def is_toeplitz(matrix, tol: float = 0.0) -> bool:
    """True when every diagonal is constant (within tol; tol=0 means exact).

    Accepts a DistanceMatrix (checked on exact ticks), an
    SIChannelMatrix, or any 2-D array-like.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    arr = as_matrix(matrix.ticks if isinstance(matrix, DistanceMatrix) else matrix)
    a, b = arr[1:, 1:], arr[:-1, :-1]
    return not np.any(a != b if tol == 0 else np.abs(a - b) > tol)


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
    if np.all(re > 0) or np.all(re < 0):
        return SIGN_UNIFORM
    odd, frac = _parity(h.delta)
    if frac is not None or np.any(np.sign(re) != 1 - 2 * odd):
        return SIGN_MIXED
    return SIGN_ALTERNATING
