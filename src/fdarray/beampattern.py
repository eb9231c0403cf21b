"""Narrowband array factors, main-lobe width, and grating-lobe detection.

The array factor of a geometry steered to theta_s is
``A(theta) = sum_n exp(j*pi*d_n*(sin(theta) - sin(theta_s)))`` with
positions d_n in half-wavelength units, so a unit-spacing array is
critically sampled and spacings above one admit grating lobes.

It is evaluated on the exact position ticks ``d_n = (t_0 + t_n)/q``, with
``u = sin(theta) - sin(theta_s)`` and ``phi = pi*u/q``, run by run: the
sorted ticks split greedily into maximal uniform runs ``a + d*i``, ``i < m``
(three or more ticks at one spacing; every other tick is a run of its own).
A run adds one Dirichlet kernel
``exp(j*phi*c) * (-1)**(k*(m-1)) * sin(m*pi*y)/sin(pi*y)`` with centre
``c = a + d*(m-1)/2``, ``v = u*d/(2*q)``, ``k = round(v)`` and ``y = v - k``:
exactly m where y == 0, and free of 0/0 and of cancellation near grating
lobes. That is two real sines and one complex exponential per run and angle.
One-tick runs are summed directly, one complex exponential each, so a set
with no uniform run is the direct sum. Every side of a family layout, under
either aperture rule, is one or two runs.

Phases are measured from the first run's centre, ``origin = t_0 + c_0``.
`beampattern` takes the magnitude of that re-centred sum S without the common
phase, so a side that is one uniform run costs two real sines per angle and
no complex exponential; `array_factor` returns ``S * exp(j*phi*origin)``.
Both work on blocks of about 2**18 entries, so memory is O(grid + block):
`beampattern` of a 1000-antenna family side on a 16384-point grid peaks at
about 3 MB.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry

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


def _runs(t: np.ndarray):
    """Maximal uniform runs of sorted distinct ticks, taken greedily from the left.

    A run is three or more ticks at one spacing; every other tick is a run of
    its own. Returns int64 arrays ``(starts, steps, lengths)``: run i holds
    the ticks ``starts[i] + steps[i]*k`` for k < lengths[i]; a one-tick run
    has step 1.
    """
    diffs = np.diff(t)
    # index of the last difference of each stretch of equal differences
    ends = np.flatnonzero(np.diff(diffs)).tolist() + [len(diffs) - 1]
    firsts = []
    i = 0
    while i < len(t):
        firsts.append(i)
        end = ends[bisect.bisect_left(ends, i)] if i < len(diffs) else i
        i = end + 2 if end > i else i + 1
    firsts = np.array(firsts)
    lengths = np.diff(firsts, append=len(t))
    steps = np.ones_like(lengths)
    multi = lengths > 1
    steps[multi] = diffs[firsts[multi]]
    return t[firsts], steps, lengths


def _dirichlet(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``sin(m*pi*v)/sin(pi*v)`` as ``(-1)**(k*(m-1)) * sin(m*pi*y)/sin(pi*y)``,
    with ``k = round(v)`` and ``y = v - k``; exactly m where |y| is zero or
    subnormal, where the products with pi would lose digits."""
    k = np.rint(v)
    y = v - k
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(np.pi * m * y) / np.sin(np.pi * y)
    out = np.where(np.abs(y) < np.finfo(float).tiny, m, out)
    even = m % 2 == 0
    if even.any():
        out = np.where((k.astype(np.int64) % 2 == 1) & even, -out, out)
    return out


def _direct_sum(offsets: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``sum_n exp(j*phi*offsets_n)``, one complex exponential per term, by blocks of angles."""
    out = np.empty(phi.shape, dtype=complex)
    ones = np.ones(len(offsets))
    rows = max(1, _BLOCK_ENTRIES // (1 + len(offsets)))
    for lo in range(0, len(phi), rows):
        # the pinned output bytes depend on this summation order
        phase = np.exp(1j * np.multiply.outer(phi[lo:lo + rows], offsets))
        out[lo:lo + rows] = np.einsum("ij,j->i", phase, ones)
    return out


def _run_sum(runs, u: np.ndarray, phi: np.ndarray, denom: int):
    """``(S, c)`` with ``S = sum_n exp(j*phi*(t_n - c))`` over the ticks of
    ``runs`` (see `_runs`) and c the first run's centre. S is real when that
    run holds every tick."""
    starts, steps, lengths = runs
    widths = steps * (lengths - 1)
    offsets = starts.astype(float) + 0.5 * (widths - widths[0]).astype(float)
    multi = lengths > 1
    out = None if multi.all() else _direct_sum(offsets[~multi], phi)
    if multi.any():
        # runs along the first axis and angles along the last, so each ufunc loop is long
        m = lengths[multi].astype(float)[:, None]
        scale = (steps[multi] / (2.0 * denom))[:, None]
        offsets = offsets[multi][:, None]
        first = int(multi[0])  # the first run's kernel has phase 1
        kernel_sum = np.empty(u.shape, dtype=complex if len(m) > first else float)
        size = max(1, _BLOCK_ENTRIES // (1 + len(m)))
        for lo in range(0, len(u), size):
            kernels = _dirichlet(scale * u[lo:lo + size], m)
            total = kernels[0] if first else 0.0
            if len(m) > first:
                phase = np.exp(1j * (offsets[first:] * phi[lo:lo + size]))
                total = total + np.einsum("ij,ij->j", phase, kernels[first:])
            kernel_sum[lo:lo + size] = total
        out = kernel_sum if out is None else out + kernel_sum
    return out, 0.5 * float(widths[0])


def _sum_at(g: ArrayGeometry, theta, theta_s: float):
    """``(S, phi, origin)`` at the angle(s) theta, with the array factor
    ``S * exp(j*phi*origin)`` and S summed run by run."""
    theta_s = _check_angle("theta_s", theta_s)
    th = np.asarray(theta, dtype=float)
    if not np.all(np.abs(th) <= np.pi / 2 + 1e-12):  # NaN fails it
        raise ValueError("theta must lie in [-pi/2, pi/2]")
    ticks, denom = g.ticks, g.denom
    u = np.sin(th.ravel()) - math.sin(theta_s)
    phi = np.pi * u / denom
    out, centre = _run_sum(_runs(ticks - ticks[0]), u, phi, denom)
    return out, phi, float(ticks[0]) + centre


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
    out, phi, origin = _sum_at(g, theta, theta_s)
    out = out * np.exp(1j * phi * origin)
    out = out.reshape(np.shape(theta))
    if np.ndim(theta) == 0:
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
    mag = np.abs(_sum_at(g, thetas, theta_s)[0])
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
    db, th = curve.gains_db, curve.thetas
    if float(db.max() - db.min()) < 1e-9:
        raise ValueError("degenerate flat curve has no main lobe")
    peak = _local_peak_index(curve)
    peak_db = float(db[peak])

    # first nulls: the nearest interior samples on each side of the peak no higher than either neighbour
    nulls = np.flatnonzero((db[1:-1] <= db[:-2]) & (db[1:-1] <= db[2:])) + 1
    before, after = nulls[nulls < peak], nulls[nulls > peak]
    if before.size and after.size and db[before[-1]] <= peak_db - 20.0 and db[after[0]] <= peak_db - 20.0:
        left, right = (_refine_parabolic(th, db, int(i)) for i in (before[-1], after[0]))
        return MainLobeWidth(width=right - left, method=METHOD_NULL_TO_NULL, left=left, right=right)

    # each crossing: between the nearest sample j at or below half power and its neighbour i toward the peak
    target = peak_db - _HALF_POWER_DB
    below = np.flatnonzero(db <= target)
    before, after = below[below < peak], below[below > peak]
    if not (before.size and after.size):
        raise ValueError("curve never drops to the half-power level; cannot measure width")
    left, right = (
        float(th[i] + (db[i] - target) / (db[i] - db[j]) * (th[j] - th[i]))
        for j, i in ((before[-1], before[-1] + 1), (after[0], after[0] - 1))
    )
    return MainLobeWidth(width=right - left, method=METHOD_HALF_POWER, left=left, right=right)


def grating_lobes(curve: BeampatternCurve, tol_db: float = 0.5) -> list[float]:
    """Angles of local maxima within tol_db of the global peak, steering excluded.

    A nonempty result means the pattern is ambiguous: some off-steering
    direction is received (or radiated) at essentially main-lobe gain.
    """
    if not tol_db >= 0:
        raise ValueError(f"tol_db must be >= 0, got {tol_db}")
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
