"""Singular-value analysis of self-interference matrices.

The spectral norm (largest singular value) scales the worst-case
self-interference power over all transmit signals; the full spectrum and
effective rank quantify how many transmit directions leak significantly.
"""

from dataclasses import dataclass

import numpy as np

from .si_model import numeric_matrix


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
        |norm(sigmas) - frob|, the residual the values alone support: a lower
        bound on the Frobenius norm of the backward error. The spectrum is
        computed without U and V, so no factored reconstruction is checked.
    """

    sigmas: np.ndarray
    frob: float
    recon_error: float


def _as_matrix(h) -> np.ndarray:
    """Validated `si_model.numeric_matrix` of a matrix-like: float64 when its
    entries are exactly real, so it is decomposed in real arithmetic, else
    complex128.

    Raises
    ------
    ValueError
        On a non-2-D or empty matrix, or non-finite entries.
    """
    arr = numeric_matrix(h)
    if arr.size == 0:
        raise ValueError("cannot decompose an empty matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


def _symmetric_form(arr: np.ndarray) -> np.ndarray | None:
    """``arr`` or ``arr[::-1]``, whichever is an exactly symmetric real
    square matrix, else None. Comparing the candidate's first row with its
    first column rules most matrices out in O(N)."""
    if np.iscomplexobj(arr) or arr.shape[0] != arr.shape[1]:
        return None
    return next((s for s in (arr, arr[::-1]) if np.array_equal(s[0], s[:, 0]) and np.array_equal(s, s.T)), None)


def _singular_values(arr: np.ndarray) -> np.ndarray:
    """Descending singular values of a `_as_matrix` array, without U or V.

    A matrix with at most one nonzero per row and per column (diagonal,
    scaled permutation, zero) has its absolute entries as singular values,
    returned exactly; a dense first row rules that out in O(N).

    A real square matrix A that is exactly symmetric, or whose row reversal
    J·A is (the SI matrix of every layout whose Tx side mirrors its Rx side,
    Tx = c − Rx), takes the symmetric eigensolver: J is orthogonal, so
    σ(A) = σ(J·A), and the singular values of a symmetric matrix are the
    magnitudes of its eigenvalues (Golub & Van Loan, *Matrix Computations*,
    4th ed., §8.6). Its values carry an absolute error of O(ε·‖A‖₂), the
    same class as the SVD's. Every other matrix, complex or rectangular
    included, takes the one values-only SVD call.
    """
    if np.count_nonzero(arr[0]) <= 1 and all(((arr != 0).sum(axis=k) <= 1).all() for k in (0, 1)):
        return np.sort(np.abs(arr).max(axis=int(arr.shape[0] <= arr.shape[1])))[::-1]
    sym = _symmetric_form(arr)
    if sym is not None:
        return np.sort(np.abs(np.linalg.eigvalsh(sym)))[::-1]
    return np.linalg.svd(arr, compute_uv=False)


def svd_spectrum(h) -> SingularSpectrum:
    """Full singular spectrum of a matrix.

    Computes singular values only, by the same call as `spectral_norm`, so
    ``sigmas[0]`` equals its σ₁ bit for bit. A matrix that
    `si_model.numeric_matrix` makes float64, such as the SI matrix of an
    integer-grid layout or a complex one whose imaginary parts are all
    zero, is decomposed in real arithmetic. A real square matrix that is
    symmetric up to the order of its rows, such as the SI matrix of an
    integer-grid layout whose Tx side mirrors its Rx side, gets its values
    as the eigenvalue magnitudes of the symmetric form, to an absolute
    error of O(ε·σ₁) like the SVD's.

    Parameters
    ----------
    h : SIChannelMatrix or 2-D array-like

    Raises
    ------
    ValueError
        On an empty matrix or non-finite entries.
    """
    arr = _as_matrix(h)
    sigmas = _singular_values(arr)
    sigmas.setflags(write=False)
    frob = float(np.linalg.norm(arr))
    return SingularSpectrum(sigmas=sigmas, frob=frob, recon_error=abs(float(np.linalg.norm(sigmas)) - frob))


def spectral_norm(h) -> float:
    """Largest singular value (worst-case SI amplification).

    Computes singular values only, by the same call as `svd_spectrum`. A
    matrix that `si_model.numeric_matrix` makes float64 is decomposed in
    real arithmetic, and a real square matrix that is symmetric up to the
    order of its rows by the symmetric eigensolver, to an absolute error of
    O(ε·σ₁) like the SVD's.

    Raises
    ------
    ValueError
        On an empty matrix or non-finite entries.
    """
    return float(_singular_values(_as_matrix(h))[0])


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
