"""Narrowband array factors, main-lobe width, and grating-lobe detection.

The array factor of a geometry steered to theta_s is
``A(theta) = sum_n exp(j*pi*d_n*(sin(theta) - sin(theta_s)))`` with
positions d_n in half-wavelength units, so a unit-spacing array is
critically sampled and spacings above one admit grating lobes.

It is evaluated on the exact position ticks ``d_n = (t_0 + t_n)/q`` by a
baby-step/giant-step split ``t_n = a_n*B + b_n``:
``A = exp(j*phi*t_0) * sum_a exp(j*phi*a*B) * sum_b counts[a, b]*exp(j*phi*b)``
with ``phi = pi*u/q``. The phases ``exp(j*phi*b)`` for ``b < B`` and
``exp(j*phi*a*B)`` for ``a <= max(a)`` are running products of one complex
exponential each, and the inner sums are one real matrix product per block of
angles, so each angle costs two complex exponentials and about
``B + max(a)`` complex products instead of N complex exponentials, and memory
stays bounded per block. When the split saves nothing (``B = 1``) the N
distinct ticks are summed directly, one exponential each.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, position_ticks

DB_FLOOR = -120.0
# matrix entries per block of angles in `array_factor`: bounds its memory
_BLOCK_ENTRIES = 2**18
_HALF_POWER_DB = 20.0 * math.log10(math.sqrt(2.0))

METHOD_NULL_TO_NULL = "null_to_null"
METHOD_HALF_POWER = "half_power"


@dataclass(frozen=True)
class BeampatternCurve:
    """Sampled magnitude pattern in dB over theta in [-pi/2, pi/2]."""

    thetas: np.ndarray
    gains_db: np.ndarray
    steering: float
    normalized: bool

    @property
    def grid_step(self) -> float:
        return float(self.thetas[1] - self.thetas[0])


@dataclass(frozen=True)
class MainLobeWidth:
    """Main-lobe width measurement with the method that produced it.

    ``method`` is 'null_to_null' when the first pattern minima flanking
    the steering angle are at least 20 dB below the peak, and
    'half_power' when the measurement fell back to the -3 dB width
    because no such nulls exist.
    """

    width: float
    method: str
    left: float
    right: float


def _check_angle(name: str, value: float) -> float:
    value = float(value)
    if not -np.pi / 2 - 1e-12 <= value <= np.pi / 2 + 1e-12:
        raise ValueError(f"{name} must lie in [-pi/2, pi/2], got {value}")
    return value


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """(count, len(w)) array of ``w**k`` for k < count, by running products.

    Each pass multiplies the powers known so far by the next power-of-two
    power of w, so the rounding error of ``w**k`` grows with k (about
    k*eps) as in a step-by-step product, in about log2(count) passes.
    """
    out = np.empty((count, len(w)), dtype=complex)
    out[0] = 1.0
    known = 1
    while known < count:
        m = min(known, count - known)
        np.multiply(out[:m], w, out=out[known:known + m])
        known += m
        w = w * w
    return out


def array_factor(g: ArrayGeometry, theta, theta_s: float = 0.0):
    """Complex array factor at angle(s) theta for steering angle theta_s.

    Parameters
    ----------
    g : ArrayGeometry
    theta : float or array-like
        Observation angle(s) in radians, within [-pi/2, pi/2].
    theta_s : float
        Steering angle in radians, within [-pi/2, pi/2].

    Returns
    -------
    complex or ndarray
        ``sum_n exp(j*pi*d_n*(sin(theta) - sin(theta_s)))``. At
        theta = theta_s this is the element count.
    """
    theta_s = _check_angle("theta_s", theta_s)
    th = np.asarray(theta, dtype=float)
    if np.any(th < -np.pi / 2 - 1e-12) or np.any(th > np.pi / 2 + 1e-12):
        raise ValueError("theta must lie in [-pi/2, pi/2]")
    (ticks,), denom = position_ticks(g)
    t = ticks - ticks[0]
    span = int(t[-1])
    step = math.isqrt(span - 1) + 1 if span else 1
    giant, baby = np.divmod(t, step)
    cols, col = np.unique(giant, return_inverse=True)
    if step + len(cols) >= len(t):
        # the split saves nothing: sum over the distinct ticks directly
        step, baby, cols, col = 1, np.zeros_like(t), t, np.arange(len(t))
    counts = np.zeros((len(cols), step))
    counts[col, baby] = 1.0  # distinct ticks: each (a, b) cell holds at most one
    phi = np.pi * (np.sin(th.ravel()) - math.sin(theta_s)) / denom
    out = np.empty(phi.shape, dtype=complex)
    rows = max(1, _BLOCK_ENTRIES // (step + len(cols)))
    for lo in range(0, len(phi), rows):
        p = phi[lo:lo + rows]
        if step == 1:
            # a running product over the whole span would drift: one exponential
            # per tick, summed by einsum against the column of ones in counts
            # (the pinned output bytes depend on this summation order)
            giant_phase = np.exp(1j * np.multiply.outer(p, cols.astype(float)))
            out[lo:lo + rows] = np.einsum("ij,j->i", giant_phase, counts[:, 0])
            continue
        # (a, angle) sums over b of exp(j*phi*b): the real product of counts
        # with the interleaved real and imaginary parts of the baby steps
        low = (counts @ _powers(np.exp(1j * p), step).view(float)).view(complex)
        giant_phase = _powers(np.exp(1j * step * p), int(cols[-1]) + 1)[cols]
        out[lo:lo + rows] = np.einsum("ij,ij->j", giant_phase, low)
    out *= np.exp(1j * phi * float(ticks[0]))
    out = out.reshape(th.shape)
    if np.isscalar(theta) or th.ndim == 0:
        return complex(out)
    return out


def beampattern(
    g: ArrayGeometry,
    theta_s: float = 0.0,
    grid_size: int = 4096,
    normalized: bool = False,
) -> BeampatternCurve:
    """Sample 20*log10|A(theta)| on a uniform angle grid over [-pi/2, pi/2].

    Exact nulls are clamped to a -120 dB floor. With ``normalized`` the
    peak is shifted to 0 dB.
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    thetas = np.linspace(-np.pi / 2, np.pi / 2, grid_size)
    mag = np.abs(array_factor(g, thetas, theta_s))
    if normalized:
        peak = mag.max()
        if peak > 0:
            mag = mag / peak
    with np.errstate(divide="ignore"):
        gains = 20.0 * np.log10(mag)
    gains = np.maximum(gains, DB_FLOOR)
    thetas.setflags(write=False)
    gains.setflags(write=False)
    return BeampatternCurve(
        thetas=thetas, gains_db=gains, steering=float(theta_s), normalized=normalized
    )


def _refine_parabolic(thetas: np.ndarray, values: np.ndarray, i: int) -> float:
    """Vertex of the parabola through samples i-1, i, i+1 (falls back to theta[i])."""
    if i <= 0 or i >= len(values) - 1:
        return float(thetas[i])
    y0, y1, y2 = values[i - 1], values[i], values[i + 1]
    if min(y0, y1, y2) <= DB_FLOOR + 1e-9:
        return float(thetas[i])
    denom = y0 - 2.0 * y1 + y2
    if abs(denom) < 1e-300:
        return float(thetas[i])
    offset = 0.5 * (y0 - y2) / denom
    offset = max(-0.5, min(0.5, offset))
    return float(thetas[i] + offset * (thetas[1] - thetas[0]))


def _local_peak_index(curve: BeampatternCurve) -> int:
    db = curve.gains_db
    i = int(np.argmin(np.abs(curve.thetas - curve.steering)))
    while i + 1 < len(db) and db[i + 1] > db[i]:
        i += 1
    while i - 1 >= 0 and db[i - 1] > db[i]:
        i -= 1
    return i


def _first_minimum(db: np.ndarray, start: int, step: int) -> int | None:
    i = start + step
    while 0 < i < len(db) - 1:
        if db[i] <= db[i - 1] and db[i] <= db[i + 1]:
            return i
        i += step
    return None


def _half_power_crossing(curve: BeampatternCurve, peak_idx: int, target: float, step: int) -> float:
    db = curve.gains_db
    th = curve.thetas
    i = peak_idx
    while 0 <= i + step < len(db) and db[i + step] > target:
        i += step
    j = i + step
    if j < 0 or j >= len(db):
        raise ValueError("curve never drops to the half-power level; cannot measure width")
    frac = (db[i] - target) / (db[i] - db[j])
    return float(th[i] + frac * (th[j] - th[i]))


def main_lobe_width(curve: BeampatternCurve) -> MainLobeWidth:
    """Width of the main lobe around the steering angle.

    Measures the null-to-null width when the first local minima on each
    side of the peak sit at least 20 dB below it. Otherwise (sparse
    geometries often have shallow first minima) the result falls back to
    the half-power width and is flagged via ``method``.

    Raises
    ------
    ValueError
        For a flat curve with no lobe to measure (e.g. single antenna).
    """
    db = curve.gains_db
    if float(db.max() - db.min()) < 1e-9:
        raise ValueError("degenerate flat curve has no main lobe")
    peak_idx = _local_peak_index(curve)
    peak_db = float(db[peak_idx])

    left_idx = _first_minimum(db, peak_idx, -1)
    right_idx = _first_minimum(db, peak_idx, +1)
    deep_enough = (
        left_idx is not None
        and right_idx is not None
        and db[left_idx] <= peak_db - 20.0
        and db[right_idx] <= peak_db - 20.0
    )
    if deep_enough:
        left = _refine_parabolic(curve.thetas, db, left_idx)
        right = _refine_parabolic(curve.thetas, db, right_idx)
        return MainLobeWidth(
            width=right - left, method=METHOD_NULL_TO_NULL, left=left, right=right
        )

    target = peak_db - _HALF_POWER_DB
    left = _half_power_crossing(curve, peak_idx, target, -1)
    right = _half_power_crossing(curve, peak_idx, target, +1)
    return MainLobeWidth(
        width=right - left, method=METHOD_HALF_POWER, left=left, right=right
    )


def grating_lobes(curve: BeampatternCurve, tol_db: float = 0.5) -> list[float]:
    """Angles of local maxima within tol_db of the global peak, steering excluded.

    A nonempty result means the pattern is ambiguous: some off-steering
    direction is received (or radiated) at essentially main-lobe gain.
    """
    db = curve.gains_db
    th = curve.thetas
    if len(db) < 3:
        return []
    threshold = float(db.max()) - tol_db
    step = curve.grid_step
    # samples at or above the threshold and no lower than either neighbour
    candidates = db >= threshold
    candidates[1:] &= db[1:] >= db[:-1]
    candidates[:-1] &= db[:-1] >= db[1:]
    lobes = []
    for i in np.flatnonzero(candidates).tolist():
        angle = _refine_parabolic(th, db, i)
        if abs(angle - curve.steering) <= 1.5 * step:
            continue
        # merge plateau samples of one lobe
        if lobes and angle - lobes[-1] <= 1.5 * step:
            continue
        lobes.append(angle)
    return lobes
