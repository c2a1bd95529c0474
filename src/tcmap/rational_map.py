"""The quadratic rational map induced by one postselected protocol step.

For gate angle varphi the map on the extended complex plane is

    f(z) = 2 z cos(varphi) / (e^{-i varphi} + z^2 e^{i varphi})

with f(infinity) = 0 and f(pole) = infinity at the two poles
z^2 = -e^{-2 i varphi}.  This module implements the map together with the
standard complex-dynamics toolbox: fixed points and the two-cycle,
multipliers and stability classes, critical orbits (which locate every
attractive cycle of a degree-2 rational map, at most two of them),
and backward-iteration sampling of the Julia set.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .sphere import INFINITY, SpherePoint, as_point, chordal_distance, is_infinite

# Degeneracy threshold on |cos(varphi)|: at varphi = pi/2, 3pi/2 the map is
# identically zero and not a genuine complex map.
DEGENERACY_EPS = 1e-12
# Pole test: |denominator| < POLE_EPS * max(1, |z|^2).
POLE_EPS = 1e-14
# The single escape rule of every forward step: a point with modulus above this
# is the point at infinity.
ESCAPE_RADIUS = 1e12

SUPERATTRACTIVE_EPS = 1e-9
NEUTRAL_EPS = 1e-9

# Marker used for the point at infinity inside complex ndarrays.
INF_COMPLEX = complex(np.inf, 0.0)


def quadratic_step(z: np.ndarray, coeffs: tuple, with_p: bool = False):
    """One forward step z -> (a z^2 + b z + c) / (d z^2 + e z + f) on an array.

    This is the homogeneous lift [u:v] -> [a u^2 + b uv + c v^2 : d u^2 + e uv + f v^2]
    read in the chart z = u/v.  `coeffs` holds the six complex arrays
    (a, b, c, d, e, f), each 0-d or of the shape of z.  The escape rule: an
    input with |z| > ESCAPE_RADIUS is the point at infinity, whose image is
    a/d, and a non-finite result is the point at infinity, returned as inf+0j.

    With with_p, also returns p = (|num|^2 + |den|^2) / (1 + |z|^2)^2, the
    squared norm of the image of the normalized two-copy state (|a|^2 + |d|^2
    at infinity): the success probability of an exact protocol step.
    """
    a, b, c, d, e, f = coeffs
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        r = np.abs(z)
        far = r > ESCAPE_RADIUS
        zz = z * z
        num = a * zz + b * z + c
        den = d * zz + e * z + f
        if with_p:
            p = (np.abs(num) ** 2 + np.abs(den) ** 2) / (1.0 + r * r) ** 2
            np.copyto(p, np.abs(a) ** 2 + np.abs(d) ** 2, where=far)
        np.divide(num, den, out=num)
        np.copyto(num, a / d, where=far)
    num[~np.isfinite(num)] = INF_COMPLEX
    return (num, p) if with_p else num


def step_point(z: SpherePoint, coeffs: tuple) -> tuple[SpherePoint, float]:
    """quadratic_step on one sphere point: the image, read as INFINITY beyond ESCAPE_RADIUS, and p."""
    z = as_point(z)
    w, p = quadratic_step(np.array([INF_COMPLEX if is_infinite(z) else z]), coeffs, with_p=True)
    w = complex(w[0])
    return (w if abs(w) <= ESCAPE_RADIUS else INFINITY), float(p[0])


class DegenerateParameterError(ValueError):
    """Raised by MapParams at a degenerate gate angle (cos varphi ~ 0)."""


class PoleError(ValueError):
    """Raised when a derivative is requested at a pole of the map."""


class NotACycleError(ValueError):
    """Raised when points handed in as a cycle fail the closure check."""


def is_degenerate(varphi: float) -> bool:
    """The gate rule: at cos(varphi) ~ 0 (varphi = pi/2, 3pi/2) the map is identically zero."""
    return abs(math.cos(float(varphi) % (2.0 * math.pi))) < DEGENERACY_EPS


@dataclass(frozen=True)
class MapParams:
    """Gate angle and precomputed phases of the map; a degenerate angle raises DegenerateParameterError."""

    varphi: float
    cos_varphi: float = field(init=False)
    e_neg: complex = field(init=False)          # e^{-i varphi}
    e_pos: complex = field(init=False)          # e^{+i varphi}
    # quadratic_step coefficients (0, cos varphi, 0, e^{i varphi}/2, 0, e^{-i varphi}/2): the ideal
    # projector's up to sign, so the step's p is the ideal success probability
    coefficients: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = float(self.varphi) % (2.0 * math.pi)
        if is_degenerate(v):
            raise DegenerateParameterError(f"map is identically zero at varphi={v!r} (cos varphi ~ 0)")
        object.__setattr__(self, "varphi", v)
        object.__setattr__(self, "cos_varphi", math.cos(v))
        object.__setattr__(self, "e_neg", cmath.exp(-1j * v))
        object.__setattr__(self, "e_pos", cmath.exp(1j * v))
        coeffs = (0.0, self.cos_varphi, 0.0, 0.5 * self.e_pos, 0.0, 0.5 * self.e_neg)
        object.__setattr__(self, "coefficients", tuple(np.array(k, dtype=np.complex128) for k in coeffs))


def apply_map(z: SpherePoint, params: MapParams) -> SpherePoint:
    """One application of the map with exact sphere semantics (f(INFINITY) = 0, poles go to INFINITY)."""
    return step_point(z, params.coefficients)[0]


def map_derivative(z: SpherePoint, params: MapParams) -> complex:
    """f'(z) = 2 cos(varphi) (e^{-i varphi} - z^2 e^{i varphi}) / (e^{-i varphi} + z^2 e^{i varphi})^2."""
    z = as_point(z)
    if is_infinite(z) or abs(z) > ESCAPE_RADIUS:
        raise ValueError("derivative in plane coordinates needs a finite point")
    c, em, ep = params.cos_varphi, params.e_neg, params.e_pos
    den = em + z * z * ep
    if abs(den) < POLE_EPS * max(1.0, abs(z) ** 2):
        raise PoleError(f"derivative requested at a pole, z={z!r}")
    return 2.0 * c * (em - z * z * ep) / (den * den)


def fixed_points(params: MapParams) -> tuple[complex, complex, complex]:
    """The three fixed points -1, 0, +1, independent of the gate angle."""
    del params
    return (-1.0 + 0j, 0j, 1.0 + 0j)


def two_cycle(params: MapParams) -> tuple[complex, complex]:
    """The single nontrivial two-cycle +-i sqrt(1 + 2 e^{-2 i varphi}).

    The map swaps the two points (it reduces to z -> -z on them); the cycle
    is repelling for every gate angle.
    """
    root = 1j * cmath.sqrt(1.0 + 2.0 * params.e_neg * params.e_neg)
    return (root, -root)


def critical_points(params: MapParams) -> tuple[complex, complex]:
    """Zeros of f', at +-e^{-i varphi}; the + point is listed first."""
    return (params.e_neg, -params.e_neg)


def classify_multiplier(multiplier: complex) -> str:
    """Stability class from |multiplier| with the module's numeric bands."""
    m = abs(multiplier)
    if m < SUPERATTRACTIVE_EPS:
        return "superattractive"
    if abs(m - 1.0) <= NEUTRAL_EPS:
        return "neutral"
    if m < 1.0:
        return "attractive"
    return "repelling"


@dataclass(frozen=True)
class CycleReport:
    """Periodic orbit with multiplier and stability class."""

    points: tuple[SpherePoint, ...]
    period: int
    multiplier: complex
    stability: str


def cycle_multiplier(points: Sequence[SpherePoint], params: MapParams, tol: float = 1e-8) -> CycleReport:
    """Validate a cycle and report its multiplier (chain rule over the orbit)."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise NotACycleError("empty point list")
    for i, p in enumerate(pts):
        nxt = apply_map(p, params)
        expected = pts[(i + 1) % len(pts)]
        if chordal_distance(nxt, expected) > tol:
            raise NotACycleError(
                f"points do not close under the map at index {i} "
                f"(distance {chordal_distance(nxt, expected):.3e} > {tol:.3e})"
            )
    if any(is_infinite(p) for p in pts):
        # no periodic orbit of this map passes through infinity (it is
        # strictly preperiodic: inf -> 0 -> 0), so reject rather than invent
        # a chart change
        raise NotACycleError("cycle through infinity is not supported")
    lam = 1.0 + 0j
    for p in pts:
        lam *= map_derivative(p, params)
    return CycleReport(tuple(pts), len(pts), lam, classify_multiplier(lam))


def _same_cycle(a: CycleReport, b: CycleReport, match_tol: float = 1e-6) -> bool:
    if a.period != b.period:
        return False
    return all(min(chordal_distance(p, q) for q in b.points) < match_tol for p in a.points)


def attractive_cycle_batch(
    params_list: Sequence[MapParams],
    burn: int = 10_000,
    max_period: int = 64,
    tol: float = 1e-8,
) -> list[list[CycleReport]]:
    """find_attractive_cycles for many gate angles at once, one list per angle.

    Both critical orbits of every angle advance together as one array: `burn`
    steps, then `max_period` more, and an orbit's period is its first
    near-return (chordal distance below tol) to the point the burn ended on.

    The burn stops once every orbit repeats one of its last `max_period` states
    bit for bit (checked at 2, 4, 8, ... times max_period steps): the step is
    elementwise, so the state after `burn` steps is read off each loop, exactly.
    """
    if burn < 0:
        raise ValueError("burn must be >= 0")
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    n = len(params_list)
    if n == 0:
        return []
    coeffs = tuple(np.array(k * 2) for k in zip(*(p.coefficients for p in params_list)))
    crit = np.array([critical_points(p)[0] for p in params_list])
    z = np.concatenate([crit, -crit])  # the + critical point of every angle, then the - one
    history = deque([z], maxlen=max_period + 1)
    check = 2 * max_period
    for step in range(1, burn + 1):
        z = quadratic_step(z, coeffs)
        history.append(z)
        if step == check:
            check *= 2
            states = np.array(history)
            bits = states.view(np.int64)
            same = (bits[:-1] == bits[-1]).reshape(max_period, z.size, 2).all(axis=2)
            if same.any(axis=0).all():
                last = max_period - 1 - same[::-1].argmax(axis=0)  # the latest earlier copy of z
                z = states[last + (burn - step) % (max_period - last), np.arange(z.size)]
                break
    orbit = [z]
    for _ in range(max_period):
        orbit.append(quadratic_step(orbit[-1], coeffs))
    orbit = np.array(orbit)
    close = chordal_distance(orbit[1:], orbit[0]) < tol
    periods = np.where(close.any(axis=0), close.argmax(axis=0) + 1, 0)

    found: list[list[CycleReport]] = [[] for _ in range(n)]
    for j in np.flatnonzero(periods):
        try:
            report = cycle_multiplier(orbit[: periods[j], j], params_list[j % n], tol)
        except ValueError:  # through infinity, at a pole, or not closing
            continue
        if report.stability not in ("attractive", "superattractive"):
            continue
        if not any(_same_cycle(report, other) for other in found[j % n]):
            found[j % n].append(report)
    return found


def find_attractive_cycles(
    params: MapParams,
    burn: int = 10_000,
    max_period: int = 64,
    tol: float = 1e-8,
) -> list[CycleReport]:
    """All attractive cycles found by following the two critical orbits.

    A degree-2 rational map has at most two attractive cycles and each one
    attracts a critical point, so iterating both critical points for `burn`
    steps and then scanning periods up to `max_period` finds every one of
    them.  Orbits that never settle (neutral or chaotic parameter values)
    simply contribute nothing.
    """
    return attractive_cycle_batch([params], burn=burn, max_period=max_period, tol=tol)[0]


def inverse_branches(w: SpherePoint, params: MapParams) -> tuple[SpherePoint, SpherePoint]:
    """Both preimages of w, solving w e^{i varphi} z^2 - 2 cos(varphi) z + w e^{-i varphi} = 0.

    w = 0 has preimages {0, infinity}; w = infinity has the two poles.  A
    critical value returns its double preimage twice.
    """
    w = as_point(w)
    c, em, ep = params.cos_varphi, params.e_neg, params.e_pos
    if is_infinite(w):
        return (1j * em, -1j * em)
    if w == 0:
        return (0j, INFINITY)
    a = w * ep
    b = -2.0 * c
    cc = w * em
    disc = cmath.sqrt(b * b - 4.0 * a * cc)
    # pick the root sign that avoids cancellation in b + s
    if (b.conjugate() * disc).real >= 0.0:
        s = disc
    else:
        s = -disc
    q = -0.5 * (b + s)
    # q == 0 only if b == 0 and disc == 0, impossible for non-degenerate c
    return (q / a, cc / q)


def julia_backward_sample(
    params: MapParams,
    n_points: int,
    seed: int,
    transient: int = 50,
) -> np.ndarray:
    """Backward-orbit sample of the Julia set, seeded and deterministic.

    Starts from one point of the repelling two-cycle and at each step jumps
    to a uniformly chosen inverse branch; the first `transient` points are
    discarded.  Returns a complex array of n_points entries (a point at
    infinity, never observed in practice, would be stored as inf+0j).
    """
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=transient + n_points)
    z: SpherePoint = two_cycle(params)[0]
    out = np.empty(n_points, dtype=np.complex128)
    for i, bit in enumerate(bits):
        z = inverse_branches(z, params)[bit]
        if i >= transient:
            out[i - transient] = INF_COMPLEX if is_infinite(z) else z
    return out


def apply_map_grid(z: np.ndarray, params: MapParams) -> np.ndarray:
    """Vectorized apply_map on a complex array; the point at infinity is inf+0j."""
    return quadratic_step(z, params.coefficients)


def escape_guard_grid(z: np.ndarray) -> np.ndarray:
    """The escape rule on an array, as quadratic_step applies it: snap |z| > ESCAPE_RADIUS to inf+0j."""
    return np.where(np.abs(z) > ESCAPE_RADIUS, INF_COMPLEX, z)
