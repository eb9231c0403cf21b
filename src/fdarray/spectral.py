"""Singular-value analysis of self-interference matrices.

The spectral norm (largest singular value) scales the worst-case
self-interference power over all transmit signals; the full spectrum and
effective rank quantify how many transmit directions leak significantly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .si_model import as_matrix


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending singular values plus numerical-contract metadata.

    Attributes
    ----------
    sigmas : ndarray
        All min(n_rx, n_tx) singular values, descending. Values are
        reported as computed, never truncated; thresholding happens only
        in `effective_rank`.
    frob : float
        Frobenius norm of the source matrix (sum of sigmas**2 equals
        frob**2 up to rounding).
    recon_error : float
        Max-abs residual of the factored reconstruction U S V*.
    """

    sigmas: np.ndarray
    frob: float
    recon_error: float

    def __len__(self) -> int:
        return len(self.sigmas)


def _as_matrix(h) -> np.ndarray:
    """Validated 2-D float64 or complex128 array of a matrix-like.

    Boolean, integer and float inputs become float64, anything else
    complex128, and a complex matrix whose entries are all exactly real (as
    on every integer-grid layout) becomes its float64 real part, so such a
    matrix is decomposed in real arithmetic.

    Raises
    ------
    ValueError
        On a non-2-D or empty matrix, or non-finite entries.
    """
    arr = as_matrix(h)
    arr = arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)
    if arr.size == 0:
        raise ValueError("cannot decompose an empty matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    if np.iscomplexobj(arr) and not arr.imag.any():
        arr = arr.real
    return arr


def svd_spectrum(h) -> SingularSpectrum:
    """Full singular spectrum of a matrix.

    A matrix whose entries are all exactly real, as on every integer-grid
    layout, is factored in real arithmetic.

    Parameters
    ----------
    h : SIChannelMatrix or 2-D array-like

    Raises
    ------
    ValueError
        On an empty matrix or non-finite entries.
    """
    arr = _as_matrix(h)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    recon_error = float(np.max(np.abs(arr - (u * s) @ vh)))
    sigmas = np.asarray(s, dtype=float)
    sigmas.setflags(write=False)
    return SingularSpectrum(sigmas=sigmas, frob=float(np.linalg.norm(arr)), recon_error=recon_error)


def spectral_norm(h) -> float:
    """Largest singular value (worst-case SI amplification).

    Computes singular values only. A matrix whose entries are all exactly
    real, as on every integer-grid layout, is decomposed in real
    arithmetic.

    Raises
    ------
    ValueError
        On an empty matrix or non-finite entries.
    """
    return float(np.linalg.svd(_as_matrix(h), compute_uv=False)[0])


def effective_rank(spec: SingularSpectrum, eps: float) -> int:
    """Number of singular values at or above eps times the largest one.

    Parameters
    ----------
    spec : SingularSpectrum
    eps : float
        Relative threshold, strictly between 0 and 1.

    Returns
    -------
    int
        0 for the zero matrix.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    s = spec.sigmas
    if s[0] == 0:
        return 0
    return int(np.count_nonzero(s >= eps * s[0]))


def interleaved_closed_form_n2(rho: float, delta2: int) -> tuple[float, float]:
    """Closed-form singular values of the two-antenna interleaved channel.

    Both values scale as rho/delta2, so their ratio is independent of the
    spacing; serves as an oracle for `svd_spectrum`.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if delta2 < 1:
        raise ValueError(f"delta2 must be >= 1, got {delta2}")
    scale = rho / delta2
    root10 = math.sqrt(10.0)
    return (
        math.sqrt((14.0 + 4.0 * root10) / 9.0) * scale,
        math.sqrt((14.0 - 4.0 * root10) / 9.0) * scale,
    )
