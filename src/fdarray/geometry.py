"""Collinear Tx/Rx antenna array geometries on the half-wavelength grid.

Positions are stored as exact rationals (:class:`fractions.Fraction`) so that
integer-grid layouts yield exact pairwise distances and exact sign patterns
downstream; floating point enters only when the channel model is evaluated.

`FAMILIES` is the one table of layout families: each row names a
generator, its parameters and the solver that sizes it to an aperture.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class ColocatedAntennaError(ValueError):
    """A Tx and an Rx antenna share a position, so the 1/distance channel term diverges."""


def parse_position(text: str) -> Fraction:
    """The exact value of a position written as an integer, a decimal or "p/q".

    Raises ValueError on text that is not such a number and on a zero
    denominator. An exponent larger in magnitude than the text's length
    plus 62 is rejected without building its power of ten: with a nonzero
    mantissa the value's numerator or denominator would exceed 10**62, past
    the 2**62 limit of `position_ticks`. So ``1e999999999`` fails at once,
    and ``0e999999999`` is 0.
    """
    mantissa, sep, exponent = text.lower().partition("e")
    try:
        huge = bool(sep) and abs(int(exponent)) > len(text) + 62
    except ValueError:  # not an integer: Fraction rejects the text, as it does past int()'s digit limit
        huge = False
    if huge:
        if Fraction(mantissa) == 0:
            return Fraction(0)
        raise ValueError(f"position {text!r} does not fit int64 ticks (limit 2**62)")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"position {text!r} has a zero denominator") from None


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"antenna position must be finite, got {value!r}")
        return Fraction(float(value))
    if isinstance(value, str):
        return parse_position(value)
    raise TypeError(f"cannot interpret {value!r} as an antenna position")


@dataclass(frozen=True)
class ArrayGeometry:
    """Finite set of antenna positions on a line, in units of half a wavelength.

    Positions are normalized to a sorted tuple of distinct ``Fraction`` values.
    Instances are immutable and safe to share between threads.

    Parameters
    ----------
    positions : iterable of int, float, str or Fraction
        Finite antenna positions, not booleans. Duplicates raise ``ValueError``.
    """

    positions: tuple[Fraction, ...]

    def __post_init__(self):
        pos = tuple(sorted(_as_fraction(p) for p in self.positions))
        if not pos:
            raise ValueError("geometry needs at least one antenna position")
        for a, b in zip(pos, pos[1:]):
            if a == b:
                raise ValueError(f"duplicate antenna position {a}")
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    @property
    def aperture(self) -> Fraction:
        """max(positions) - min(positions); zero for a single antenna."""
        return self.positions[-1] - self.positions[0]

    @property
    def is_integer(self) -> bool:
        """True when every position sits on the integer half-wavelength grid."""
        return all(p.denominator == 1 for p in self.positions)

    def scaled(self, factor) -> "ArrayGeometry":
        """Elementwise scaling ``c * X = {c x}``."""
        c = _as_fraction(factor)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        return ArrayGeometry(tuple(c * p for p in self.positions))

    def shifted(self, offset) -> "ArrayGeometry":
        """Elementwise translation ``X + c = {x + c}``."""
        c = _as_fraction(offset)
        return ArrayGeometry(tuple(p + c for p in self.positions))


@dataclass(frozen=True)
class FullDuplexLayout:
    """A transmit geometry paired with a receive geometry.

    A shared Tx/Rx position is rejected at construction: it would put a
    zero in the pairwise distance matrix and make the spherical-wave
    channel model singular.

    Parameters
    ----------
    tx, rx : ArrayGeometry or iterable of positions
    label : str
        Free-form tag carried through file round trips.
    """

    tx: ArrayGeometry
    rx: ArrayGeometry
    label: str = ""

    def __post_init__(self):
        for name in ("tx", "rx"):
            g = getattr(self, name)
            if not isinstance(g, ArrayGeometry):
                try:
                    object.__setattr__(self, name, ArrayGeometry(tuple(g)))
                except (TypeError, ValueError) as exc:
                    raise type(exc)(f"{name} side: {exc}") from None
        shared = set(self.tx.positions) & set(self.rx.positions)
        if shared:
            at = ", ".join(str(p) for p in sorted(shared))
            raise ColocatedAntennaError(f"colocated Tx/Rx antenna at position(s) {at}")

    @property
    def n_tx(self) -> int:
        return len(self.tx)

    @property
    def n_rx(self) -> int:
        return len(self.rx)

    @property
    def joint_aperture(self) -> Fraction:
        """Extent of the union of Tx and Rx positions."""
        lo = min(self.tx.positions[0], self.rx.positions[0])
        hi = max(self.tx.positions[-1], self.rx.positions[-1])
        return hi - lo

    @property
    def is_integer(self) -> bool:
        return self.tx.is_integer and self.rx.is_integer


def position_ticks(*geometries: ArrayGeometry) -> tuple[list[np.ndarray], int]:
    """Positions as int64 ticks over their common denominator.

    Returns ``(ticks, denom)``: one int64 array per geometry, with
    ``position == tick / denom`` exactly. Raises ValueError, naming the
    denominator, when it or any tick reaches 2**62 (so tick sums and
    differences fit int64); ticks never wrap.
    """
    denom = math.lcm(*(p.denominator for g in geometries for p in g.positions))
    ticks = [[p.numerator * (denom // p.denominator) for p in g.positions] for g in geometries]
    biggest = max(abs(t) for side in ticks for t in side)
    if max(denom, biggest) >= 2**62:
        raise ValueError(f"positions do not fit int64 ticks: common denominator {denom}, limit 2**62")
    return [np.array(side, dtype=np.int64) for side in ticks], denom


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of layout validation: hard errors plus informational notes."""

    errors: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def generate_partitioned(n: int, delta1: int = 0) -> FullDuplexLayout:
    """Two side-by-side uniform blocks: Rx at 0..n-1, Tx after a gap of delta1.

    Parameters
    ----------
    n : int
        Antennas per side, >= 1.
    delta1 : int
        Nonnegative gap between the Rx block and the Tx block.

    Returns
    -------
    FullDuplexLayout
        rx = {0, ..., n-1}, tx = rx + n + delta1; joint aperture 2n-1+delta1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if delta1 < 0:
        raise ValueError(f"delta1 must be >= 0, got {delta1}")
    rx = ArrayGeometry(tuple(Fraction(i) for i in range(n)))
    tx = rx.shifted(n + delta1)
    return FullDuplexLayout(tx=tx, rx=rx, label=f"partitioned(n={n},delta1={delta1})")


def generate_interleaved(n: int, delta2: int = 1) -> FullDuplexLayout:
    """Alternating Tx/Rx antennas with uniform spacing delta2.

    Parameters
    ----------
    n : int
        Antennas per side, >= 1.
    delta2 : int
        Positive spacing between neighbouring antennas; delta2 = 0 would
        colocate every Tx/Rx pair.

    Returns
    -------
    FullDuplexLayout
        rx = 2*delta2*{0, ..., n-1}, tx = rx + delta2; joint aperture
        delta2*(2n-1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if delta2 < 1:
        raise ValueError(f"delta2 must be >= 1, got {delta2}")
    rx = ArrayGeometry(tuple(Fraction(2 * delta2 * i) for i in range(n)))
    tx = rx.shifted(delta2)
    return FullDuplexLayout(tx=tx, rx=rx, label=f"interleaved(n={n},delta2={delta2})")


def generate_nested(m1: int, m2: int, delta3: int = 1) -> FullDuplexLayout:
    """Dense block plus sparse block per side, Tx mirroring Rx.

    Rx is a dense m1-element block {0..m1-1} followed by a sparse
    m2-element block with spacing 2*delta3; Tx is the mirror image of Rx
    shifted by m1-1+delta3. Each side has N = m1 + m2 antennas.

    Parameters
    ----------
    m1, m2 : int
        Dense and sparse block sizes, both >= 1.
    delta3 : int
        Half the sparse-block spacing, >= 1.
    """
    if m1 < 1:
        raise ValueError(f"m1 must be >= 1, got {m1}")
    if m2 < 1:
        raise ValueError(f"m2 must be >= 1, got {m2}")
    if delta3 < 1:
        raise ValueError(f"delta3 must be >= 1, got {delta3}")
    dense = [Fraction(i) for i in range(m1)]
    sparse = [Fraction(2 * delta3 * (k + 1) + m1 - 1) for k in range(m2)]
    rx = ArrayGeometry(tuple(dense + sparse))
    top = rx.positions[-1]
    tx = ArrayGeometry(tuple(top - p + m1 - 1 + delta3 for p in rx.positions))
    return FullDuplexLayout(
        tx=tx, rx=rx, label=f"nested(m1={m1},m2={m2},delta3={delta3})"
    )


def validate(tx, rx=None) -> ValidationReport:
    """Check a layout (or a raw tx/rx position pair) for structural problems.

    Colocated Tx/Rx positions are reported as errors since they make the
    channel model singular; duplicate positions within one side, positions
    that are not numbers and empty sides are also errors (they cannot form
    geometries); everything else is informational.

    Parameters
    ----------
    tx : FullDuplexLayout, ArrayGeometry or iterable of positions
        Pass a layout alone, or a tx position collection together with ``rx``.
    rx : ArrayGeometry or iterable of positions, optional

    Returns
    -------
    ValidationReport

    Raises
    ------
    TypeError
        When ``rx`` is omitted and ``tx`` is not a FullDuplexLayout.
    """
    if rx is None:
        if not isinstance(tx, FullDuplexLayout):
            raise TypeError(
                f"validate takes a FullDuplexLayout alone or tx and rx positions, got {type(tx).__name__} alone"
            )
        tx, rx = tx.tx, tx.rx

    errors = []
    notes = []
    sides = []
    for name, side in (("tx", tx), ("rx", rx)):
        values = list(side.positions if isinstance(side, ArrayGeometry) else side)
        if not values:
            errors.append(f"{name} side has no antennas")
        pos = []
        for value in values:
            try:
                pos.append(_as_fraction(value))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                errors.append(f"{name} position {value!r} is not a number: {exc}")
        sides.append((name, pos))
    (_, tx_pos), (_, rx_pos) = sides

    for name, pos in sides:
        seen, dups = set(), set()
        for p in pos:
            if p in seen:
                dups.add(p)
            seen.add(p)
        if dups:
            errors.append(
                f"duplicate {name} position(s): {', '.join(map(str, sorted(dups)))}"
            )

    shared = sorted(set(tx_pos) & set(rx_pos))
    if shared:
        errors.append(
            "colocated Tx/Rx pair at " + ", ".join(str(p) for p in shared)
        )
    if not errors:
        notes.append(
            f"{len(tx_pos)} tx / {len(rx_pos)} rx antennas, joint aperture "
            f"{max(max(tx_pos), max(rx_pos)) - min(min(tx_pos), min(rx_pos))}"
        )
    return ValidationReport(errors=tuple(errors), notes=tuple(notes))


def solve_partitioned_gap(n: int, l_target: float) -> tuple[int, bool]:
    """Gap delta1 whose joint aperture best matches l_target.

    Returns (delta1, clamped); clamped is True when the target is below the
    minimum aperture 2n-1 and delta1 was clipped to 0.
    """
    raw = round(l_target) - (2 * n - 1)
    return max(0, raw), raw < 0


def solve_interleaved_spacing(n: int, l_target: float) -> tuple[int, bool]:
    """Spacing delta2 whose joint aperture delta2*(2n-1) best matches l_target."""
    raw = round(l_target / (2 * n - 1))
    return max(1, raw), raw < 1


def solve_nested_params(n: int, l_target: float) -> tuple[int, int, int, bool]:
    """Nested (m1, m2, delta3) for n antennas per side and a target aperture.

    Uses the balanced split m1 = ceil(n/2), m2 = n - m1 and inverts the
    joint-aperture identity 2(m1-1) + delta3*(2 m2 + 1) = L for delta3.
    Returns (m1, m2, delta3, clamped).
    """
    if n < 2:
        raise ValueError("nested layouts need n >= 2 antennas per side")
    m1 = math.ceil(n / 2)
    m2 = n - m1
    raw = math.floor((l_target - 2 * (m1 - 1)) / (2 * m2 + 1))
    return m1, m2, max(1, raw), raw < 1


@dataclass(frozen=True)
class FamilySpec:
    """One layout family: its generator and the solver that sizes it.

    ``params`` names the generator's arguments in call order. ``solve``
    maps ``(n, l_target)`` to the values of those arguments other than
    ``n``, in the same order, followed by a ``clamped`` flag.
    """

    generate: Callable[..., FullDuplexLayout]
    params: tuple[str, ...]
    solve: Callable[[int, float], tuple]


FAMILIES = {
    "partitioned": FamilySpec(generate_partitioned, ("n", "delta1"), solve_partitioned_gap),
    "interleaved": FamilySpec(generate_interleaved, ("n", "delta2"), solve_interleaved_spacing),
    "nested": FamilySpec(generate_nested, ("m1", "m2", "delta3"), solve_nested_params),
}


def build_family_layout(family: str, n: int, l_target: float):
    """Layout of a family with n antennas per side sized to a target aperture.

    Returns
    -------
    (layout, params, feasible)
        ``params`` is a tuple of (name, value) pairs, one per generator
        argument other than ``n``; ``feasible`` is False when the solved
        parameter was clamped to its minimum and the target aperture is
        therefore not met.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    if not math.isfinite(l_target):
        raise ValueError(f"target aperture must be finite, got {l_target}")
    spec = FAMILIES[family]
    *values, clamped = spec.solve(n, l_target)
    params = tuple(zip([p for p in spec.params if p != "n"], values))
    sizes = {"n": n} if "n" in spec.params else {}
    return spec.generate(**sizes, **dict(params)), params, not clamped


def ascii_sketch(layout: FullDuplexLayout, max_width: int = 160) -> str:
    """One-line picture of an integer-grid layout ('R'/'T' marks, '.' gaps)."""
    if not layout.is_integer or layout.joint_aperture > max_width:
        tx = ",".join(str(p) for p in layout.tx.positions)
        rx = ",".join(str(p) for p in layout.rx.positions)
        return f"rx=[{rx}] tx=[{tx}]"
    lo = min(layout.tx.positions[0], layout.rx.positions[0])
    cells = ["."] * (int(layout.joint_aperture) + 1)
    for p in layout.rx.positions:
        cells[int(p - lo)] = "R"
    for p in layout.tx.positions:
        cells[int(p - lo)] = "T"
    return "".join(cells)
