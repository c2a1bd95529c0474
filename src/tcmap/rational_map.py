"""The quadratic rational map induced by one postselected protocol step.

For gate angle varphi the map on the extended complex plane is

    f(z) = 2 z cos(varphi) / (e^{-i varphi} + z^2 e^{i varphi})

with f(infinity) = 0 and f(pole) = infinity at the two poles
z^2 = -e^{-2 i varphi}.  This module implements the step kernel and the
complex-dynamics toolbox: the two-cycle, multipliers and stability classes,
critical orbits (which locate the at most two attractive cycles) and
backward-iteration Julia sampling.  All of it reads the six coefficients of
f(z) = (a z^2 + b z + c) / (d z^2 + e z + f), the ideal map's or the exact step's.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sphere import INFINITY, as_point, chordal_distance, is_infinite

# Degeneracy threshold on |cos(varphi)|: at varphi = pi/2, 3pi/2 the map is
# identically zero and not a genuine complex map.
DEGENERACY_EPS = 1e-12
# The single escape rule of every forward step: a point with modulus above this
# is the point at infinity.
ESCAPE_RADIUS = 1e12

SUPERATTRACTIVE_EPS = 1e-9
NEUTRAL_EPS = 1e-9
# a step whose success probability p falls below this is a null outcome
NULL_OUTCOME_EPS = 1e-14


def quadratic_step(z: np.ndarray, coeffs: tuple, with_p: bool = False):
    """One forward step z -> (a z^2 + b z + c) / (d z^2 + e z + f) on an array.

    This is the homogeneous lift [u:v] -> [a u^2 + b uv + c v^2 : d u^2 + e uv + f v^2]
    read in the chart z = u/v.  `coeffs` holds the six complex arrays
    (a, b, c, d, e, f), each 0-d or of the shape of z.  The escape rule: an
    input with |z| > ESCAPE_RADIUS is the point at infinity, whose image is
    a/d, and a non-finite result is the point at infinity, returned as INFINITY.

    With with_p, also returns p = (|num|^2 + |den|^2) / (1 + |z|^2)^2, the
    squared norm of the image of the normalized two-copy state (|a|^2 + |d|^2
    at infinity): the success probability of an exact protocol step.
    """
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        return _step_body(z, coeffs, coeffs[0] / coeffs[3], with_p)


def _step_body(z: np.ndarray, coeffs: tuple, inf_image, with_p: bool = False):
    """quadratic_step on a complex128 array under the caller's error state; inf_image is a / d.

    A loop that steps the same coefficients many times enters np.errstate and
    divides a / d once, outside the loop.
    """
    a, b, c, d, e, f = coeffs
    r = np.abs(z)
    far = r > ESCAPE_RADIUS
    zz = z * z
    num = a * zz + b * z + c
    den = d * zz + e * z + f
    if with_p:
        p = (np.abs(num) ** 2 + np.abs(den) ** 2) / (1.0 + r * r) ** 2
        np.copyto(p, np.abs(a) ** 2 + np.abs(d) ** 2, where=far)
    np.divide(num, den, out=num)
    np.copyto(num, inf_image, where=far)
    num[~np.isfinite(num)] = INFINITY
    return (num, p) if with_p else num


def success_floor(coeffs: tuple) -> float:
    """A lower bound on quadratic_step's p over the whole sphere; cos^2 varphi / 4 for the ideal map.

    p = |B s|^2 for B = [[a, b/r, c], [d, e/r, f]], r = sqrt 2, and the unit vector
    s = (u^2, r uv, v^2), |u|^2 + |v|^2 = 1.  With n the unit null vector of B,
    |<n, s>| = |u^T N u| <= sigma_1(N) for N = [[n1, n2/r], [n2/r, n3]], and |N|_F = 1,
    so p >= sigma_2(B)^2 (1 - |<n, s>|^2) >= sigma_2(B)^2 sigma_2(N)^2.
    """
    a, b, c, d, e, f = (complex(k) for k in coeffs)
    r = math.sqrt(2.0)
    _, sb, vh = np.linalg.svd(np.array([[a, b / r, c], [d, e / r, f]]))
    n1, n2, n3 = vh[2]  # conjugated, which leaves the singular values of N as they are
    sn = np.linalg.svd(np.array([[n1, n2 / r], [n2 / r, n3]]), compute_uv=False)
    return float((sb[1] * sn[1]) ** 2)


def step_point(z: complex, coeffs: tuple) -> tuple[complex, float]:
    """quadratic_step on one sphere point: the image, read as INFINITY beyond ESCAPE_RADIUS, and p."""
    w, p = quadratic_step(np.array([as_point(z)]), coeffs, with_p=True)
    w = complex(w[0])
    return (w if abs(w) <= ESCAPE_RADIUS else INFINITY), float(p[0])


class DegenerateParameterError(ValueError):
    """Raised by ideal_coefficients at a degenerate gate angle (cos varphi ~ 0)."""


class PoleError(ValueError):
    """Raised when a derivative is requested at a pole of the map."""


class NotACycleError(ValueError):
    """Raised when points handed in as a cycle fail the closure check."""


def is_degenerate(varphi: float) -> bool:
    """The gate rule: at cos(varphi) ~ 0 (varphi = pi/2, 3pi/2) the map is identically zero."""
    return abs(math.cos(float(varphi) % (2.0 * math.pi))) < DEGENERACY_EPS


def ideal_coefficients(varphi: float) -> tuple:
    """The ideal map's quadratic_step coefficients (0, cos varphi, 0, e^{i varphi}/2, 0, e^{-i varphi}/2).

    They are the ideal projector's up to sign, so the step's p is the ideal
    success probability.  A degenerate angle raises DegenerateParameterError.
    """
    v = float(varphi) % (2.0 * math.pi)
    if is_degenerate(v):
        raise DegenerateParameterError(f"map is identically zero at varphi={v!r} (cos varphi ~ 0)")
    coeffs = (0.0, math.cos(v), 0.0, 0.5 * cmath.exp(1j * v), 0.0, 0.5 * cmath.exp(-1j * v))
    return tuple(np.array(k, dtype=np.complex128) for k in coeffs)


def _quadratic_roots(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Both roots of a z^2 + b z + c on the sphere: INFINITY for each degree the form drops."""
    if a == 0:
        if b == 0 and c == 0:  # only the form of a step that is no degree-2 map vanishes
            raise ValueError("the step is not a degree-2 map")
        return (INFINITY if b == 0 else -c / b, INFINITY)
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    # pick the root sign that avoids cancellation in b + s
    s = disc if (b.conjugate() * disc).real >= 0.0 else -disc
    q = -0.5 * (b + s)
    return (0j, 0j) if q == 0 else (q / a, c / q)  # q == 0 only for b == c == 0


def map_derivative(z: complex, coeffs: tuple) -> complex:
    """f'(z) = ((ae-bd) z^2 + 2(af-cd) z + (bf-ce)) / (d z^2 + e z + f)^2 for the six step coefficients."""
    z = as_point(z)
    if abs(z) > ESCAPE_RADIUS:  # infinity included
        raise ValueError("derivative in plane coordinates needs a finite point")
    a, b, c, d, e, f = (complex(k) for k in coeffs)
    den = (d * z + e) * z + f
    if den == 0:
        raise PoleError(f"derivative requested at a pole, z={z!r}")
    return (((a * e - b * d) * z + 2.0 * (a * f - c * d)) * z + (b * f - c * e)) / (den * den)


def two_cycle(varphi: float) -> tuple[complex, complex]:
    """The ideal map's single nontrivial two-cycle +-i sqrt(1 + 2 e^{-2 i varphi}), varphi taken mod 2pi.

    The map swaps the two points (it reduces to z -> -z on them); the cycle
    is repelling for every gate angle.
    """
    em = cmath.exp(-1j * (float(varphi) % (2.0 * math.pi)))
    root = 1j * cmath.sqrt(1.0 + 2.0 * em * em)
    return (root, -root)


def critical_points(coeffs: tuple, varphi: float) -> tuple[complex, complex]:
    """Zeros of f', roots of (ae-bd) z^2 + 2(af-cd) z + (bf-ce), the one nearer e^{-i varphi} first."""
    roots = _critical_roots(tuple(complex(k) for k in coeffs))
    return roots[::-1] if _second_nearer(np.array([roots]), [varphi])[0] else roots


def _critical_roots(coeffs: tuple[complex, ...]) -> tuple[complex, complex]:
    a, b, c, d, e, f = coeffs
    return _quadratic_roots(a * e - b * d, 2.0 * (a * f - c * d), b * f - c * e)


def _second_nearer(roots: np.ndarray, varphis: Sequence[float]) -> np.ndarray:
    """For each row of critical points (one map per row), whether the second is nearer e^{-i varphi}."""
    centre = np.array([cmath.exp(-1j * v) for v in varphis])
    dist = chordal_distance(roots, centre[:, None])
    return ~(dist[:, 0] <= dist[:, 1])


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

    points: tuple[complex, ...]
    period: int
    multiplier: complex
    stability: str


def cycle_multiplier(points: Sequence[complex], coeffs: tuple, tol: float = 1e-8) -> CycleReport:
    """Validate a cycle of the step on `coeffs` and report its multiplier (chain rule over the orbit)."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise NotACycleError("empty point list")
    for i, p in enumerate(pts):
        gap = chordal_distance(step_point(p, coeffs)[0], pts[(i + 1) % len(pts)])
        if gap > tol:
            raise NotACycleError(f"points do not close under the map at index {i} "
                                 f"(distance {gap:.3e} > {tol:.3e})")
    return _cycle_report(pts, coeffs)


def _cycle_report(pts: Sequence[complex], coeffs: tuple) -> CycleReport:
    """The report of a closed cycle: f' multiplied along it; infinite points and poles raise ValueError."""
    if any(is_infinite(p) for p in pts):
        # f' is taken in the plane chart; the ideal map has no such cycle (inf -> 0 -> 0)
        raise NotACycleError("cycle through infinity is not supported")
    lam = 1.0 + 0j
    for p in pts:
        lam *= map_derivative(p, coeffs)
    return CycleReport(tuple(pts), len(pts), lam, classify_multiplier(lam))


def attractive_cycle_batch(
    maps: Sequence[tuple[tuple, float]],
    burn: int = 10_000,
    max_period: int = 64,
    tol: float = 1e-8,
) -> list[list[CycleReport]]:
    """The attractive cycles of many maps at once, one list per map.

    Each map is a pair (coefficients, varphi); the angle only orders the two
    critical points.  Both critical orbits of every map advance together as
    one array: `burn` steps, then `max_period` more, and an orbit's period is
    its first near-return (chordal distance below tol) to its burn's end.

    An orbit leaves the burn once it repeats one of its last `max_period` states
    bit for bit (checked at 2, 4, 8, ... times max_period steps), so only open
    orbits are stepped: the step is elementwise, so the state after `burn`
    steps is read off each loop, exactly.  All steps run in one error state,
    and a / d is divided again only when the open orbits change.
    """
    if burn < 0:
        raise ValueError("burn must be >= 0")
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    n = len(maps)
    if n == 0:
        return []
    scalar = [tuple(complex(k) for k in coeffs) for coeffs, _ in maps]
    roots = np.array([_critical_roots(s) for s in scalar])
    swap = _second_nearer(roots, [v for _, v in maps])
    roots[swap] = roots[swap, ::-1]
    z = roots.T.ravel()  # the first critical point of every map, then the second one
    all_coeffs = tuple(np.array(k * 2) for k in zip(*scalar))
    end = np.empty_like(z)  # each orbit's state after the burn
    live, coeffs = np.arange(z.size), all_coeffs  # the open orbits and their coefficients
    history = deque([z], maxlen=max_period + 1)
    check = 2 * max_period
    with np.errstate(all="ignore"):
        inf_image = coeffs[0] / coeffs[3]
        for step in range(1, burn + 1):
            z = _step_body(z, coeffs, inf_image)
            history.append(z)
            if step == check:
                check *= 2
                states = np.array(history)
                bits = states.view(np.int64)
                same = (bits[:-1] == bits[-1]).reshape(max_period, z.size, 2).all(axis=2)
                done = same.any(axis=0)
                last = max_period - 1 - same[::-1, done].argmax(axis=0)  # the latest earlier copy of z
                end[live[done]] = states[last + (burn - step) % (max_period - last), np.flatnonzero(done)]
                live, z, states = live[~done], z[~done], states[:, ~done]
                coeffs = tuple(k[~done] for k in coeffs)
                inf_image = inf_image[~done]
                history = deque(states, maxlen=max_period + 1)
                if not live.size:
                    break
        end[live] = z
        # an orbit decaying to the fixed point 0 ends the burn on a subnormal or signed zero: read it as 0
        z = np.where(np.abs(end) < np.finfo(float).tiny, 0j, end)
        orbit = [z]
        inf_image = all_coeffs[0] / all_coeffs[3]
        for _ in range(max_period):
            orbit.append(_step_body(orbit[-1], all_coeffs, inf_image))
    orbit = np.array(orbit)
    close = chordal_distance(orbit[1:], orbit[0]) < tol
    periods = np.where(close.any(axis=0), close.argmax(axis=0) + 1, 0)

    attracting = {}
    for j in np.flatnonzero(periods).tolist():
        # rows are the step's images and the period is the near-return, so the points close
        try:
            report = _cycle_report(orbit[: periods[j], j].tolist(), scalar[j % n])
        except ValueError:  # through infinity, beyond the escape radius or at a pole
            continue
        if report.stability in ("attractive", "superattractive"):
            attracting[j] = report
    # the second critical orbit's cycle counts only where it is not the first one's: every
    # point of it at chordal distance below match_tol from a point of the first cycle
    match_tol = 1e-6
    by_period: dict[int, list[int]] = {}
    for i in range(n):
        if i in attracting and i + n in attracting and periods[i] == periods[i + n]:
            by_period.setdefault(int(periods[i]), []).append(i)
    for period, group in by_period.items():
        i = np.array(group)
        second, first = orbit[:period, i + n].T, orbit[:period, i].T
        same = (chordal_distance(second[:, :, None], first[:, None, :]).min(axis=2) < match_tol).all(axis=1)
        for k in i[same].tolist():
            del attracting[k + n]
    return [[attracting[j] for j in (i, i + n) if j in attracting] for i in range(n)]


def find_attractive_cycles(
    coeffs: tuple,
    varphi: float,
    burn: int = 10_000,
    max_period: int = 64,
    tol: float = 1e-8,
) -> list[CycleReport]:
    """All attractive cycles of the step on coeffs, found by following the two critical orbits.

    A degree-2 rational map has at most two attractive cycles and each one
    attracts a critical point; varphi orders the two.  Orbits that never
    settle (neutral or chaotic parameter values) contribute nothing.
    """
    return attractive_cycle_batch([(coeffs, varphi)], burn=burn, max_period=max_period, tol=tol)[0]


def inverse_branches(w: complex, coeffs: tuple) -> tuple[complex, complex]:
    """Both preimages of w, roots of (a - w d) z^2 + (b - w e) z + (c - w f) (of d z^2 + e z + f at infinity).

    Where the degree drops the second one is INFINITY (the ideal map's 0 has
    {0, infinity}); a critical value returns its double preimage twice.
    """
    w = as_point(w)
    a, b, c, d, e, f = (complex(k) for k in coeffs)
    if is_infinite(w):
        return _quadratic_roots(d, e, f)
    return _quadratic_roots(a - w * d, b - w * e, c - w * f)


def julia_backward_sample(
    varphi: float,
    n_points: int,
    seed: int,
    transient: int = 50,
) -> np.ndarray:
    """Backward-orbit sample of the ideal map's Julia set, seeded and deterministic.

    Starts from one point of the repelling two-cycle and at each step jumps
    to a uniformly chosen inverse branch; the first `transient` points are
    discarded.  Returns a complex array of n_points entries (a point at
    infinity, never observed in practice, would be stored as INFINITY).
    """
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=transient + n_points)
    coeffs = ideal_coefficients(varphi)
    z = two_cycle(varphi)[0]
    out = np.empty(n_points, dtype=np.complex128)
    for i, bit in enumerate(bits):
        z = inverse_branches(z, coeffs)[bit]
        if i >= transient:
            out[i - transient] = z
    return out


def apply_map_grid(z: np.ndarray, varphi: float) -> np.ndarray:
    """The ideal map on a complex array; no runner calls it, bench/tracing.py wraps it by name."""
    return quadratic_step(z, ideal_coefficients(varphi))


def escape_guard_grid(z: np.ndarray) -> np.ndarray:
    """The escape rule on an array, as quadratic_step applies it: snap |z| > ESCAPE_RADIUS to INFINITY."""
    return np.where(np.abs(z) > ESCAPE_RADIUS, INFINITY, z)
