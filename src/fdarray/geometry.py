"""Collinear Tx/Rx antenna array geometries on the half-wavelength grid.

Positions are stored exactly, as int64 ticks over a common denominator, so
that integer-grid layouts yield exact pairwise distances and exact sign
patterns downstream; floating point enters only when the channel model is
evaluated. Ticks stay below 2**62: each side checks its own when it is
built, and `position_ticks` the joint ones where two sides meet.

`FAMILIES` is the one table of layout families: each row names a
generator, its parameters and the solver that sizes it to an aperture.
"""

import math
from collections import Counter
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
    the 2**62 tick limit. So ``1e999999999`` fails at once, and
    ``0e999999999`` is 0.
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


def _exact(value) -> int | Fraction:
    """The exact value of one position or factor: an ``int`` for integers."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"antenna position must be finite, got {value!r}")
        return Fraction(float(value))
    if isinstance(value, str):
        return parse_position(value)
    raise TypeError(f"cannot interpret {value!r} as an antenna position")


def _value(tick, denom: int) -> int | Fraction:
    return int(tick) if denom == 1 else Fraction(int(tick), denom)


def _side_positions(positions) -> list:
    """The positions of one side as a list; a str, bytes or non-iterable side raises TypeError."""
    try:
        items = None if isinstance(positions, (str, bytes, bytearray)) else iter(positions)
    except TypeError:
        items = None
    if items is None:
        raise TypeError(f"expected an iterable of antenna positions, got {type(positions).__name__}")
    return list(items)


def _check_fits(biggest: int, denom: int) -> None:
    if max(denom, biggest) >= 2**62:
        raise ValueError(f"positions do not fit int64 ticks: common denominator {denom}, limit 2**62")


@dataclass(frozen=True, init=False, eq=False)
class ArrayGeometry:
    """Finite set of antenna positions on a line, in units of half a wavelength.

    Stores ``ticks``, a sorted read-only int64 array of distinct values, and
    ``denom``, the smallest common denominator: position = tick / denom.
    ``positions`` gives ``int`` values when denom is 1, else ``Fraction``
    values. Instances are immutable and safe to share between threads.

    Parameters
    ----------
    positions : iterable of int, float, str or Fraction
        Finite antenna positions, not booleans. Duplicates, and ticks or a
        common denominator of 2**62 or more, raise ``ValueError``; a str,
        bytes or non-iterable ``positions`` raises ``TypeError``.
    """

    ticks: np.ndarray
    denom: int

    def __init__(self, positions):
        values = [_exact(p) for p in _side_positions(positions)]
        if not values:
            raise ValueError("geometry needs at least one antenna position")
        denom = math.lcm(*(v.denominator for v in values))
        ticks = [v.numerator * (denom // v.denominator) for v in values]
        _check_fits(max(map(abs, ticks)), denom)
        ticks = np.sort(np.array(ticks, dtype=np.int64))
        same = np.flatnonzero(ticks[1:] == ticks[:-1])
        if same.size:
            raise ValueError(f"duplicate antenna position {_value(ticks[same[0]], denom)}")
        _geometry(ticks, denom, self)

    def __eq__(self, other):
        same = isinstance(other, ArrayGeometry) and self.denom == other.denom
        return same and np.array_equal(self.ticks, other.ticks)

    def __hash__(self):
        return hash((self.denom, self.ticks.tobytes()))

    def __len__(self) -> int:
        return len(self.ticks)

    def __iter__(self):
        return iter(self.positions)

    @property
    def positions(self) -> tuple[int | Fraction, ...]:
        """The sorted positions: ``int`` values when denom is 1, else ``Fraction`` values."""
        ticks = self.ticks.tolist()
        return tuple(ticks) if self.denom == 1 else tuple(Fraction(t, self.denom) for t in ticks)

    def scaled(self, factor) -> "ArrayGeometry":
        """Elementwise scaling ``c * X = {c x}``."""
        c = _exact(factor)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        return self._mapped(c.numerator, 0, self.denom * c.denominator)

    def shifted(self, offset) -> "ArrayGeometry":
        """Elementwise translation ``X + c = {x + c}``."""
        c = _exact(offset)
        return self._mapped(c.denominator, c.numerator * self.denom, self.denom * c.denominator)

    def _mapped(self, a: int, b: int, c: int) -> "ArrayGeometry":
        """The positions (a*t + b) / c, c > 0, reduced before the new ticks are formed:
        a*t + b = first + a*(t - t0), so the gcd of c and every a*t + b is
        gcd(c, first, a*step), with step the gcd of the tick gaps."""
        t = self.ticks
        first = a * int(t[0]) + b
        step = int(np.gcd.reduce(np.diff(t)))
        g = math.gcd(c, first, a * step)
        denom, first = c // g, first // g
        last = first + a * (int(t[-1]) - int(t[0])) // g
        _check_fits(max(abs(first), abs(last)), denom)
        ticks = first + (t - t[0]) // max(step, 1) * (a * step // g)
        return _geometry(ticks[::-1] if a < 0 else ticks, denom)


def _geometry(ticks: np.ndarray, denom: int = 1, g: ArrayGeometry | None = None) -> ArrayGeometry:
    """``g`` (by default a new geometry) set to sorted distinct ticks over a reduced denominator."""
    g = object.__new__(ArrayGeometry) if g is None else g
    ticks.setflags(write=False)
    object.__setattr__(g, "ticks", ticks)
    object.__setattr__(g, "denom", denom)
    return g


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
                    object.__setattr__(self, name, ArrayGeometry(g))
                except (TypeError, ValueError) as exc:
                    raise type(exc)(f"{name} side: {exc}") from None
        # a shared position's reduced denominator divides q, so it is a whole tick over q on both sides
        q = math.gcd(self.tx.denom, self.rx.denom)
        tx, rx = ((s.ticks[s.ticks % (s.denom // q) == 0] // (s.denom // q)) for s in (self.tx, self.rx))
        shared = np.intersect1d(tx, rx, assume_unique=True)  # sorted and distinct; np.unique imports numpy.ma
        if shared.size:
            at = ", ".join(str(_value(t, q)) for t in shared)
            raise ColocatedAntennaError(f"colocated Tx/Rx antenna at position(s) {at}")

    @property
    def joint_aperture(self) -> int | Fraction:
        """Extent of the union of Tx and Rx positions."""
        ends = [_value(s.ticks[i], s.denom) for s in (self.tx, self.rx) for i in (0, -1)]
        return max(ends) - min(ends)


def position_ticks(*geometries: ArrayGeometry) -> tuple[list[np.ndarray], int]:
    """Positions as int64 ticks over their common denominator.

    Returns ``(ticks, denom)``: one int64 array per geometry (its own
    read-only ``ticks`` when its denominator is the common one), with
    ``position == tick / denom`` exactly. Raises ValueError, naming the
    denominator, when it or any tick reaches 2**62 (so tick sums and
    differences fit int64); ticks never wrap. Each geometry checked its own
    ticks when it was built, so only a joint denominator can fail here.
    """
    denom = math.lcm(*(g.denom for g in geometries))
    scales = [denom // g.denom for g in geometries]
    _check_fits(max(max(-int(g.ticks[0]), int(g.ticks[-1])) * s for g, s in zip(geometries, scales)), denom)
    return [g.ticks if s == 1 else g.ticks * s for g, s in zip(geometries, scales)], denom


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of layout validation: hard errors plus informational notes."""

    errors: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def _at_least(minimum: int, **params) -> None:
    """ValueError naming the first parameter that is not an integer (not a bool) >= minimum."""
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


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
    _at_least(1, n=n)
    _at_least(0, delta1=delta1)
    rx = _geometry(np.arange(n, dtype=np.int64))
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
    _at_least(1, n=n, delta2=delta2)
    rx = _geometry(np.arange(n, dtype=np.int64)).scaled(2 * delta2)
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
    _at_least(1, m1=m1, m2=m2, delta3=delta3)
    sparse = _geometry(np.arange(1, m2 + 1, dtype=np.int64)).scaled(2 * delta3).shifted(m1 - 1)
    rx = _geometry(np.concatenate((np.arange(m1, dtype=np.int64), sparse.ticks)))
    tx = rx.scaled(-1).shifted(int(rx.ticks[-1]) + m1 - 1 + delta3)
    return FullDuplexLayout(tx=tx, rx=rx, label=f"nested(m1={m1},m2={m2},delta3={delta3})")


def validate(tx, rx=None) -> ValidationReport:
    """Check a layout (or a raw tx/rx position pair) for structural problems.

    Colocated Tx/Rx positions are reported as errors since they make the
    channel model singular; duplicate positions within one side, positions
    that are not numbers, sides past the 2**62 tick limit, empty sides and
    sides that are no iterable of positions (a str, a number, None) are
    also errors (they cannot form geometries); everything else is
    informational. So the report is ok exactly when ``FullDuplexLayout``
    builds from the same positions.

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
            alone = type(tx).__name__
            raise TypeError(f"validate takes a FullDuplexLayout alone or tx and rx positions, got {alone} alone")
        tx, rx = tx.tx, tx.rx

    errors, sides = [], {}
    for name, side in (("tx", tx), ("rx", rx)):
        sides[name] = []
        try:
            values = _side_positions(side)
        except TypeError as exc:
            errors.append(f"{name} side: {exc}")
            continue
        if not values:
            errors.append(f"{name} side has no antennas")
        for value in values:
            try:
                sides[name].append(_exact(value))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                errors.append(f"{name} position {value!r} is not a number: {exc}")
    for name, pos in sides.items():
        dups = sorted(p for p, count in Counter(pos).items() if count > 1)
        if dups:
            errors.append(f"duplicate {name} position(s): {', '.join(map(str, dups))}")
        elif pos:
            try:
                ArrayGeometry(pos)
            except ValueError as exc:  # the 2**62 tick limit
                errors.append(f"{name} side: {exc}")
    tx_pos, rx_pos = sides.values()
    shared = sorted(set(tx_pos) & set(rx_pos))
    if shared:
        errors.append("colocated Tx/Rx pair at " + ", ".join(map(str, shared)))
    if errors:
        return ValidationReport(errors=tuple(errors))
    aperture = max(tx_pos + rx_pos) - min(tx_pos + rx_pos)
    return ValidationReport(notes=(f"{len(tx_pos)} tx / {len(rx_pos)} rx antennas, joint aperture {aperture}",))


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


def ascii_sketch(layout: FullDuplexLayout) -> str:
    """One-line picture of an integer-grid layout ('R'/'T' marks, '.' gaps)
    up to 160 cells wide; a list of positions otherwise."""
    if layout.tx.denom != 1 or layout.rx.denom != 1 or layout.joint_aperture > 160:
        tx, rx = (",".join(map(str, g.positions)) for g in (layout.tx, layout.rx))
        return f"rx=[{rx}] tx=[{tx}]"
    lo = min(layout.tx.ticks[0], layout.rx.ticks[0])
    cells = np.full(layout.joint_aperture + 1, ".")
    cells[layout.rx.ticks - lo] = "R"
    cells[layout.tx.ticks - lo] = "T"
    return "".join(cells)
