"""Independent oracles for the benchmark.

Nothing here calls fdarray. Positions are rebuilt from each family's
defining formulas (or parsed from the files the CLI wrote), distances are
exact integer ticks over a common denominator, the channel sign on the
integer grid comes from parity, and spectra come straight from LAPACK via
``np.linalg``. Every ``check_*`` function returns a list of mismatch
messages; an empty list means the output is correct.
"""

import json
import math
from fractions import Fraction

import numpy as np

RTOL = 1e-10
BP_ATOL_PER_ELEMENT = 1e-7
DB_FLOOR = -120.0


# --- geometry ---------------------------------------------------------------


def family_positions(family, params, offset=0, scale=1):
    """(tx, rx) positions of a family from its defining formulas.

    ``params`` maps parameter names to values: ``n`` and ``delta1`` for
    partitioned, ``n`` and ``delta2`` for interleaved, ``m1``, ``m2`` and
    ``delta3`` for nested. Positions are scaled by ``scale`` and then
    translated by ``offset``; both may be Fractions.
    """
    p = dict(params)
    if family == "partitioned":
        rx = list(range(p["n"]))
        tx = [x + p["n"] + p["delta1"] for x in rx]
    elif family == "interleaved":
        rx = [2 * p["delta2"] * i for i in range(p["n"])]
        tx = [x + p["delta2"] for x in rx]
    elif family == "nested":
        m1, m2, d3 = p["m1"], p["m2"], p["delta3"]
        rx = list(range(m1)) + [m1 - 1 + 2 * d3 * (k + 1) for k in range(m2)]
        tx = [rx[-1] - x + m1 - 1 + d3 for x in rx]
    else:
        raise ValueError(f"unknown family {family!r}")
    scale, offset = Fraction(scale), Fraction(offset)
    move = lambda xs: sorted(Fraction(x) * scale + offset for x in xs)
    return move(tx), move(rx)


def aperture(tx, rx):
    return max(tx[-1], rx[-1]) - min(tx[0], rx[0])


def check_positions(name, got, want):
    got = [Fraction(p) for p in got]
    if got != list(want):
        return [f"{name}: positions differ from the family formula"]
    return []


def ticks(*sides):
    """Integer ticks of exact positions over their common denominator."""
    denom = 1
    for side in sides:
        for p in side:
            denom = math.lcm(denom, Fraction(p).denominator)
    bound = max(abs(Fraction(p)) for side in sides for p in side) * denom
    if bound >= 2**62:
        raise OverflowError("positions do not fit int64 ticks")
    out = [np.array([int(Fraction(p) * denom) for p in side], dtype=np.int64) for side in sides]
    return out, denom


# --- channel and spectrum ---------------------------------------------------


def channel(tx, rx, rho):
    """rho*exp(j*pi*d)/d from exact positions; sign (-1)**d on integer d."""
    (t, r), denom = ticks(tx, rx)
    d = np.abs(r[:, None] - t[None, :])
    if np.any(d == 0):
        raise ValueError("colocated Tx/Rx pair")
    integer = d % denom == 0
    dist = d / denom
    h = np.empty(d.shape, dtype=complex)
    sign = np.where((d // denom) % 2 == 1, -1.0, 1.0)
    h[integer] = rho * sign[integer] / dist[integer]
    phase = (d % (2 * denom)) / denom
    h[~integer] = rho * np.exp(1j * np.pi * phase[~integer]) / dist[~integer]
    return h, d, denom


def expected_sign_pattern(d, denom):
    if np.any(d % denom != 0):
        return "complex"
    parity = (d // denom) % 2
    if np.all(parity == 0) or np.all(parity == 1):
        return "uniform"
    return "alternating"


def expected_toeplitz(d):
    return bool(np.array_equal(d[1:, 1:], d[:-1, :-1]))


def sigmas(h):
    return np.linalg.svd(h, compute_uv=False)


def close(a, b, scale, rtol=RTOL):
    return abs(a - b) <= rtol * abs(scale)


def check_spectrum(name, got, want):
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: {got.size} singular values, expected {want.size}"]
    if np.max(np.abs(got - want)) > RTOL * want[0]:
        return [f"{name}: singular values differ from LAPACK on the reference channel"]
    return []


# --- co-array ---------------------------------------------------------------


def coarray(tx, rx):
    """Distinct sums, multiplicities and longest integer run of tx + rx."""
    (t, r), denom = ticks(tx, rx)
    sums, counts = np.unique((t[:, None] + r[None, :]).ravel(), return_counts=True)
    if denom != 1:
        return [Fraction(int(s), denom) for s in sums], counts.tolist(), None
    breaks = np.flatnonzero(np.diff(sums) != 1)
    edges = np.concatenate(([-1], breaks, [sums.size - 1]))
    return sums.tolist(), counts.tolist(), int(np.max(np.diff(edges)))


def check_coarray(name, got_sums, got_counts, got_run, want):
    sums, counts, run = want
    errors = []
    if list(got_sums) != sums:
        errors.append(f"{name}: co-array sums differ")
    if list(got_counts) != counts:
        errors.append(f"{name}: co-array multiplicities differ")
    if got_run != run:
        errors.append(f"{name}: contiguous length {got_run}, expected {run}")
    return errors


# --- beampattern ------------------------------------------------------------


def array_factor_mag(positions, thetas, theta_s):
    """|sum_n exp(j*pi*x_n*(sin(theta) - sin(theta_s)))|, positions re-centred."""
    (x,), denom = ticks(positions)
    x = (x - x[0]) / denom
    u = np.sin(np.asarray(thetas, dtype=float)) - math.sin(theta_s)
    return np.abs(np.exp(1j * np.pi * np.multiply.outer(u, x)).sum(axis=-1))


def sample_indices(size, count=16):
    return np.unique(np.linspace(0, size - 1, count).round().astype(int))


def check_curve(name, positions, thetas, gains_db, theta_s):
    """Compare sampled gains (and the peak) with the reference array factor."""
    thetas = np.asarray(thetas, dtype=float)
    gains = np.asarray(gains_db, dtype=float)
    grid = np.linspace(-np.pi / 2, np.pi / 2, thetas.size)
    if np.max(np.abs(thetas - grid)) > 1e-12:
        return [f"{name}: angle grid is not uniform over [-pi/2, pi/2]"]
    idx = np.unique(np.concatenate((sample_indices(gains.size), [int(np.argmax(gains))])))
    want = array_factor_mag(positions, thetas[idx], theta_s)
    got = np.where(gains[idx] <= DB_FLOOR, 0.0, 10.0 ** (gains[idx] / 20.0))
    tol = BP_ATOL_PER_ELEMENT * len(positions)
    bad = np.abs(got - want) > np.maximum(tol, 10.0 ** (DB_FLOOR / 20.0))
    if np.any(bad):
        return [f"{name}: beampattern gain differs from the array factor at {int(np.sum(bad))} samples"]
    return []


def uniform_grating_count(spacing, theta_s, margin=0.02):
    """Grating lobes of a uniform array with the given spacing (half-wavelengths).

    Returns None when a lobe sits within ``margin`` (in sine space) of the
    edge of the visible region, where a sampled curve may or may not show it.
    """
    s = math.sin(theta_s)
    count, k = 0, 1
    while 2 * k / spacing <= 2 + margin:
        for u in (s + 2 * k / spacing, s - 2 * k / spacing):
            if abs(abs(u) - 1) < margin:
                return None
            count += abs(u) < 1
        k += 1
    return count


def check_lobes(name, thetas, gains_db, theta_s, width, left, right, method, lobes, tol_db, expected_count):
    errors = []
    step = float(thetas[1] - thetas[0])
    if not (width > 0 and left <= theta_s + 2 * step and right >= theta_s - 2 * step):
        errors.append(f"{name}: main lobe [{left}, {right}] does not bracket the steering angle")
    if abs(width - (right - left)) > 1e-12 or method not in ("null_to_null", "half_power"):
        errors.append(f"{name}: inconsistent main-lobe record")
    peak = float(np.max(gains_db))
    for angle in lobes:
        i = int(np.argmin(np.abs(thetas - angle)))
        if abs(angle - theta_s) <= step or gains_db[i] < peak - tol_db - 1.0:
            errors.append(f"{name}: grating lobe at {angle} is not near main-lobe gain")
    if expected_count is not None and len(lobes) != expected_count:
        errors.append(f"{name}: {len(lobes)} grating lobes, expected {expected_count}")
    return errors


# --- file parsers (the CLI's output formats, parsed without fdarray) ---------


def parse_cell(cell):
    cell = cell.strip()
    if not cell.endswith("i"):
        return complex(float(cell), 0.0)
    body = cell[:-1]
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            return complex(float(body[:i]), float(body[i:]))
    raise ValueError(f"malformed complex cell {cell!r}")


def parse_matrix_csv(text):
    rows = [[parse_cell(c) for c in line.split(",")] for line in text.splitlines() if line.strip()]
    return np.array(rows, dtype=complex), "i" in text


def parse_matrix_json(text):
    return np.array([[complex(re, im) for re, im in row] for row in json.loads(text)])


def parse_layout(text):
    doc = json.loads(text, parse_float=Fraction, parse_int=Fraction)
    return sorted(doc["tx"]), sorted(doc["rx"]), doc.get("units")


def parse_table(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:] if line]


def parse_spectrum(text):
    rows = parse_table(text, "index,sigma")
    if [int(i) for i, _ in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("spectrum indices are not 1..k")
    return np.array([float(s) for _, s in rows])


def parse_curve(text):
    rows = parse_table(text, "theta,B")
    return np.array([float(t) for t, _ in rows]), np.array([float(b) for _, b in rows])


def parse_coarray(text):
    rows = parse_table(text, "sum,multiplicity")
    return [Fraction(s) for s, _ in rows], [int(m) for _, m in rows]


def parse_sweep(text):
    out = []
    for n, l_actual, family, sigma, params, feasible in parse_table(
        text, "N,L,family,spectral_norm,params,feasible"
    ):
        kv = dict(item.split("=") for item in params.split(";"))
        out.append((int(n), int(l_actual), family, float(sigma), {k: int(v) for k, v in kv.items()}, feasible))
    return out


def check_sweep_row(name, family, n, rho, params, l_actual, sigma, cache):
    """Aperture and sigma_1 of one sweep row against the reference channel."""
    key = (family, n, tuple(sorted(params.items())))
    if key not in cache:
        tx, rx = family_positions(family, {"n": n, **params})
        if len(tx) != n or len(rx) != n:
            cache[key] = None
        else:
            h, _, _ = channel(tx, rx, 1.0)
            cache[key] = (int(aperture(tx, rx)), float(np.linalg.norm(h, 2)))
    if cache[key] is None:
        return [f"{name}: parameters {params} do not give {n} antennas per side"]
    want_l, unit_sigma = cache[key]
    errors = []
    if l_actual != want_l:
        errors.append(f"{name}: aperture {l_actual}, expected {want_l}")
    if not close(sigma, rho * unit_sigma, rho * unit_sigma):
        errors.append(f"{name}: spectral norm {sigma!r}, expected {rho * unit_sigma!r}")
    return errors
