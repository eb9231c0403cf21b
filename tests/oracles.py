"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: singular values come
from closed-form characteristic-polynomial roots, co-arrays from a direct
pair enumeration, matrix files from formatting every cell on its own,
geometries from per-position ``Fraction`` arithmetic. They exist so the
main implementations are checked against something that cannot share their
bugs.
"""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np


def singular_values_2x2(a) -> tuple[float, float]:
    """Singular values of a 2x2 matrix via the quadratic formula on A*A."""
    a = np.asarray(a, dtype=complex)
    b = a.conj().T @ a
    tr = float((b[0, 0] + b[1, 1]).real)
    det = float((b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]).real)
    disc = max(tr * tr / 4.0 - det, 0.0)
    root = math.sqrt(disc)
    hi = max(tr / 2.0 + root, 0.0)
    lo = max(tr / 2.0 - root, 0.0)
    return math.sqrt(hi), math.sqrt(lo)


def singular_values_3x3(a) -> tuple[float, float, float]:
    """Singular values of a 3x3 matrix via trigonometric cubic roots of A*A.

    Uses the closed-form eigenvalue solution for Hermitian 3x3 matrices
    (shift by the mean eigenvalue, then solve the depressed cubic with the
    cosine identity).
    """
    a = np.asarray(a, dtype=complex)
    b = a.conj().T @ a
    m = float(np.trace(b).real) / 3.0
    k = b - m * np.eye(3)
    p = float((k * k.conj()).sum().real) / 6.0
    if p <= 0.0:
        eigs = (m, m, m)
    else:
        q = float(np.linalg.det(k).real) / 2.0
        r = q / (p * math.sqrt(p))
        r = max(-1.0, min(1.0, r))
        phi = math.acos(r) / 3.0
        sq = math.sqrt(p)
        eigs = (
            m + 2.0 * sq * math.cos(phi),
            m + 2.0 * sq * math.cos(phi + 2.0 * math.pi / 3.0),
            m + 2.0 * sq * math.cos(phi + 4.0 * math.pi / 3.0),
        )
    sigmas = sorted((math.sqrt(max(e, 0.0)) for e in eigs), reverse=True)
    return tuple(sigmas)


def interleaved_closed_form_n2(rho: float, delta2: int) -> tuple[float, float]:
    """Closed-form singular values of the two-antenna interleaved channel.

    Both values scale as rho/delta2, so their ratio is independent of the
    spacing.
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


def interleaved_sigma1_bracket(n: int) -> tuple[float, float]:
    """Bounds on sigma_1 of the interleaved channel at rho = 1, delta2 = 1, from harmonic sums.

    Every distance is odd, |2k + 1| with k = m - n, so every entry is
    -1/|2k + 1|. The all-ones Rayleigh quotient |1'H1|/N lies below sigma_1
    and the Schur bound sqrt(||H||_1 ||H||_inf) above it. With
    P[p] = sum_{j < p} 1/(2j + 1), row n sums to P[N - n] + P[n] and column
    m to P[m + 1] + P[N - 1 - m].
    """
    k = np.arange(1 - n, n)
    rayleigh = float(np.sum((n - np.abs(k)) / np.abs(2 * k + 1))) / n
    p = np.concatenate(([0.0], np.cumsum(1.0 / (2 * np.arange(n) + 1))))
    i = np.arange(n)
    rows = p[n - i] + p[i]
    cols = p[i + 1] + p[n - 1 - i]
    return rayleigh, math.sqrt(float(rows.max()) * float(cols.max()))


def factored_svd(a):
    """U, S, V* of LAPACK's full factorisation of a matrix, S descending.

    An exactly real matrix (every imaginary part zero) is factored in real
    arithmetic, any other in complex arithmetic. Unlike a values-only call,
    the factors let a test check the reconstruction U S V* against ``a``.
    """
    a = np.asarray(a)
    a = a.astype(float if a.dtype.kind in "biuf" else complex)
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real
    return np.linalg.svd(a, full_matrices=False)


class FractionGeometry:
    """A set of antenna positions as a sorted tuple of distinct ``Fraction`` values.

    Every operation works position by position in exact rational
    arithmetic, with no common denominator and no integer ticks. Positions
    are given as int, "p/q" text, float or Fraction.
    """

    def __init__(self, positions):
        values = sorted(Fraction(p) for p in positions)
        if not values:
            raise ValueError("geometry needs at least one antenna position")
        repeated = sorted(p for p, count in Counter(values).items() if count > 1)
        if repeated:
            raise ValueError(f"duplicate antenna position {repeated[0]}")
        self.positions = tuple(values)

    @property
    def is_integer(self) -> bool:
        return all(p.denominator == 1 for p in self.positions)

    @property
    def denominator(self) -> int:
        """The smallest denominator that puts every position on an integer tick."""
        return math.lcm(*(p.denominator for p in self.positions))

    def shifted(self, offset) -> "FractionGeometry":
        return FractionGeometry(p + Fraction(offset) for p in self.positions)

    def scaled(self, factor) -> "FractionGeometry":
        return FractionGeometry(p * Fraction(factor) for p in self.positions)


def joint_aperture(tx: FractionGeometry, rx: FractionGeometry) -> Fraction:
    """Extent of the union of two reference geometries."""
    both = tx.positions + rx.positions
    return max(both) - min(both)


def colocation_message(tx: FractionGeometry, rx: FractionGeometry) -> str | None:
    """The error text of a layout whose sides share positions; None when they share none."""
    shared = sorted(set(tx.positions) & set(rx.positions))
    if not shared:
        return None
    return "colocated Tx/Rx antenna at position(s) " + ", ".join(map(str, shared))


def fraction_distances(layout) -> list[list[Fraction]]:
    """Every |rx - tx| of a layout's positions as a ``Fraction``; rows index Rx, columns Tx."""
    tx = [Fraction(t) for t in layout.tx.positions]
    return [[abs(Fraction(r) - t) for t in tx] for r in layout.rx.positions]


def integer_grid_channel(distances, rho: float) -> np.ndarray:
    """float64 matrix of rho * (-1)**d / d over rows of integer ``Fraction`` distances."""
    if any(d.denominator != 1 for row in distances for d in row):
        raise ValueError("a distance is not an integer")
    return np.array([[(-rho if d.numerator % 2 else rho) / float(d) for d in row] for row in distances])


def enumerate_sum_coarray(tx_positions, rx_positions):
    """(sorted distinct sums, multiplicity list, longest consecutive run).

    Pure enumeration over all (tx, rx) pairs; the run length is computed
    only when every sum is an integer, otherwise it is None.
    """
    counts = Counter(t + r for t in tx_positions for r in rx_positions)
    sums = sorted(counts)
    mults = [counts[s] for s in sums]
    if all(s == int(s) for s in sums):
        best = cur = 1
        for x, y in zip(sums, sums[1:]):
            cur = cur + 1 if y - x == 1 else 1
            best = max(best, cur)
    else:
        best = None
    return sums, mults, best


def direct_array_factor(positions, thetas, theta_s):
    """sum_n exp(j*pi*x_n*(sin(theta) - sin(theta_s))) as a dense direct sum.

    Every position is rounded to float64 on its own, with no re-centring,
    and all len(thetas) x len(positions) exponentials are formed at once.
    Pass positions minus the first one for the re-centred sum.
    """
    x = np.array([float(p) for p in positions], dtype=float)
    u = np.sin(np.asarray(thetas, dtype=float)) - math.sin(theta_s)
    return np.exp(1j * np.pi * np.multiply.outer(u, x)).sum(axis=-1)


def longdouble_array_factor(positions, thetas, theta_s, block_entries=2**20):
    """|sum_n exp(j*pi*(x_n - x_0)*u)| summed in extended precision.

    u = sin(theta) - sin(theta_s) is the float64 value the library uses.
    Everything after it is taken in ``np.longdouble`` (64 mantissa bits on
    x86-64): pi, the exact offsets x_n - x_0, the phases, their cosines and
    sines and the sums. So the result differs from a float64 evaluation of
    the same formula at the same u by that evaluation's own rounding.
    """
    x = [Fraction(p - positions[0]) for p in positions]
    offsets = np.array([p.numerator for p in x], dtype=np.longdouble)
    offsets /= np.array([p.denominator for p in x], dtype=np.longdouble)
    u = (np.sin(np.asarray(thetas, dtype=float)) - math.sin(theta_s)).astype(np.longdouble)
    pi = 4 * np.arctan(np.longdouble(1))
    out = np.empty(u.shape, dtype=float)
    rows = max(1, block_entries // len(offsets))
    for lo in range(0, len(u), rows):
        phase = pi * np.multiply.outer(u[lo:lo + rows], offsets)
        out[lo:lo + rows] = np.hypot(np.cos(phase).sum(axis=-1), np.sin(phase).sum(axis=-1))
    return out


def sincos_array_factor(positions, thetas, theta_s, block_entries=2**18):
    """The array factor by a baby-step/giant-step split with sine/cosine baby steps.

    Positions (exact rationals) become integer ticks t_n over their common
    denominator q, re-centred on the first one and split as
    t_n - t_0 = a_n*B + b_n with B = ceil(sqrt(span)). Per block of angles,
    sin and cos of phi*b for every b < B are multiplied by the 0/1 (b, a)
    occupancy matrix, and the result is summed against exp(j*phi*a*B), with
    phi = pi*(sin(theta) - sin(theta_s))/q. When B + #distinct(a) >= N the
    ticks are summed directly (B = 1).
    """
    q = math.lcm(*(p.denominator for p in positions))
    ticks = np.array([p.numerator * (q // p.denominator) for p in positions], dtype=np.int64)
    th = np.asarray(thetas, dtype=float)
    t = ticks - ticks[0]
    span = int(t[-1])
    step = math.isqrt(span - 1) + 1 if span else 1
    giant, baby = np.divmod(t, step)
    cols, col = np.unique(giant, return_inverse=True)
    if step + len(cols) >= len(t):
        step, baby, cols, col = 1, np.zeros_like(t), t, np.arange(len(t))
    counts = np.zeros((step, len(cols)))
    counts[baby, col] = 1.0
    baby_ticks = np.arange(step, dtype=float)
    giant_ticks = cols.astype(float) * step
    phi = np.pi * (np.sin(th.ravel()) - math.sin(theta_s)) / q
    out = np.empty(phi.shape, dtype=complex)
    rows = max(1, block_entries // (step + len(cols)))
    for lo in range(0, len(phi), rows):
        p = phi[lo:lo + rows]
        b = np.multiply.outer(p, baby_ticks)
        low = 1j * (np.sin(b) @ counts)
        low += np.cos(b) @ counts
        giant_phase = np.exp(1j * np.multiply.outer(p, giant_ticks))
        out[lo:lo + rows] = np.einsum("ij,ij->i", giant_phase, low)
    out *= np.exp(1j * phi * float(ticks[0]))
    return out.reshape(th.shape)


def running_product_array_factor(positions, thetas, theta_s, block_entries=2**18):
    """The array factor by a baby-step/giant-step split with running-product phases.

    The split of `sincos_array_factor`, with the baby steps exp(j*phi*b),
    b < B, and the giant steps exp(j*phi*a*B), a <= max(a), built as running
    products of exp(j*phi) and exp(j*phi*B): each pass multiplies the powers
    known so far by the next power-of-two power. The baby steps are summed by
    the real product of the (a, b) occupancy matrix with their interleaved
    real and imaginary parts. When B + #distinct(a) >= N the ticks are summed
    directly, one exponential each.
    """

    def powers(w, count):
        out = np.empty((count, len(w)), dtype=complex)
        out[0] = 1.0
        known = 1
        while known < count:
            m = min(known, count - known)
            np.multiply(out[:m], w, out=out[known:known + m])
            known += m
            w = w * w
        return out

    q = math.lcm(*(p.denominator for p in positions))
    ticks = np.array([p.numerator * (q // p.denominator) for p in positions], dtype=np.int64)
    th = np.asarray(thetas, dtype=float)
    t = ticks - ticks[0]
    span = int(t[-1])
    step = math.isqrt(span - 1) + 1 if span else 1
    giant, baby = np.divmod(t, step)
    cols, col = np.unique(giant, return_inverse=True)
    if step + len(cols) >= len(t):
        step, baby, cols, col = 1, np.zeros_like(t), t, np.arange(len(t))
    counts = np.zeros((len(cols), step))
    counts[col, baby] = 1.0
    phi = np.pi * (np.sin(th.ravel()) - math.sin(theta_s)) / q
    out = np.empty(phi.shape, dtype=complex)
    rows = max(1, block_entries // (step + len(cols)))
    for lo in range(0, len(phi), rows):
        p = phi[lo:lo + rows]
        if step == 1:
            giant_phase = np.exp(1j * np.multiply.outer(p, cols.astype(float)))
            out[lo:lo + rows] = np.einsum("ij,j->i", giant_phase, counts[:, 0])
            continue
        low = (counts @ powers(np.exp(1j * p), step).view(float)).view(complex)
        giant_phase = powers(np.exp(1j * step * p), int(cols[-1]) + 1)[cols]
        out[lo:lo + rows] = np.einsum("ij,ij->j", giant_phase, low)
    out *= np.exp(1j * phi * float(ticks[0]))
    return out.reshape(th.shape)


def reference_matrix_csv(matrix) -> str:
    """Matrix CSV text with every cell formatted on its own.

    A cell is the repr of its float64 value, or "a+bi" (sign from the
    imaginary part's sign bit, "+" for NaN) when any entry has a nonzero
    imaginary part.
    """
    arr = np.asarray(matrix)
    if np.iscomplexobj(arr) and arr.imag.any():
        def cell(z):
            re_part, im_part = float(z.real), float(z.imag)
            if im_part < 0 or (im_part == 0 and np.signbit(im_part)):
                return f"{re_part!r}-{abs(im_part)!r}i"
            return f"{re_part!r}+{im_part!r}i"
    else:
        arr, cell = arr.real.astype(float), repr
    return "".join(",".join(map(cell, row)) + "\n" for row in arr.tolist())


def reference_matrix_json(matrix) -> str:
    """Matrix JSON text: json.dumps of the nested [re, im] pairs of every cell."""
    arr = np.asarray(matrix, dtype=complex)
    return json.dumps(np.stack((arr.real, arr.imag), -1).tolist()) + "\n"
