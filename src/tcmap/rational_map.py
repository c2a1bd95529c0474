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
from typing import Sequence

import numpy as np

from .sphere import INFINITY, as_point, chordal_distance, is_infinite

# Degeneracy threshold on |cos(varphi)|: at varphi = pi/2, 3pi/2 the map is
# identically zero and not a genuine complex map.
DEGENERACY_EPS = 1e-12
# The single escape rule of every forward step: a point with modulus above this
# is the point at infinity.
ESCAPE_RADIUS = 1e12

# backward-iteration points discarded before the Julia sample starts
JULIA_TRANSIENT = 50

SUPERATTRACTIVE_EPS = 1e-9
NEUTRAL_EPS = 1e-9
# a step whose success probability p falls below this is a null outcome
NULL_OUTCOME_EPS = 1e-14
# chordal distance within which a cycle's last point must step back onto its first
CLOSURE_TOL = 1e-8


def quadratic_step(z: np.ndarray, coeffs: tuple, with_p: bool = False):
    """One forward step z -> (a z^2 + b z + c) / (d z^2 + e z + f) on an array.

    This is the homogeneous lift [u:v] -> [a u^2 + b uv + c v^2 : d u^2 + e uv + f v^2]
    read in the chart z = u/v.  `coeffs` holds the six coefficients
    (a, b, c, d, e, f), complex numbers or arrays of the shape of z.  The escape rule: an
    input with |z| > ESCAPE_RADIUS is the point at infinity, whose image is
    a/d, and a non-finite result is the point at infinity, returned as INFINITY.

    With with_p, also returns p = (|num|^2 + |den|^2) / (1 + |z|^2)^2, the
    squared norm of the image of the normalized two-copy state (|a|^2 + |d|^2
    at infinity): the success probability of an exact protocol step.
    """
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        # numpy's division, which can differ from Python's complex one in the last bit
        return _step_body(z, coeffs, np.divide(coeffs[0], coeffs[3]), with_p)


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
    a, b, c, d, e, f = coeffs
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


def is_degenerate(varphi: float) -> bool:
    """The gate rule: at cos(varphi) ~ 0 (varphi = pi/2, 3pi/2) the map is identically zero."""
    return abs(math.cos(float(varphi) % (2.0 * math.pi))) < DEGENERACY_EPS


def ideal_coefficients(varphi: float) -> tuple:
    """The ideal map's quadratic_step coefficients (0, cos varphi, 0, e^{i varphi}/2, 0, e^{-i varphi}/2),
    six complex numbers.

    They are the ideal projector's up to sign, so the step's p is the ideal
    success probability.  A degenerate angle raises ValueError.
    """
    v = float(varphi) % (2.0 * math.pi)
    if is_degenerate(v):
        raise ValueError(f"map is identically zero at varphi={v!r} (cos varphi ~ 0)")
    return (0j, complex(math.cos(v)), 0j, 0.5 * cmath.exp(1j * v), 0j, 0.5 * cmath.exp(-1j * v))


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
    a, b, c, d, e, f = coeffs
    den = (d * z + e) * z + f
    if den == 0:
        raise ValueError(f"derivative requested at a pole, z={z!r}")
    return (((a * e - b * d) * z + 2.0 * (a * f - c * d)) * z + (b * f - c * e)) / (den * den)


def two_cycle(varphi: float) -> tuple[complex, complex]:
    """The ideal map's single nontrivial two-cycle +-i sqrt(1 + 2 e^{-2 i varphi}), varphi taken mod 2pi.

    The map swaps the two points (it reduces to z -> -z on them); the cycle
    is repelling for every gate angle.
    """
    em = cmath.exp(-1j * (float(varphi) % (2.0 * math.pi)))
    root = 1j * cmath.sqrt(1.0 + 2.0 * em * em)
    return (root, -root)


def _critical_roots(coeffs: tuple[complex, ...]) -> tuple[complex, complex]:
    """Zeros of f', roots of (ae-bd) z^2 + 2(af-cd) z + (bf-ce)."""
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


def attractive_cycle_batch(
    maps: Sequence[tuple[tuple, float]],
    burn: int = 10_000,
    max_period: int = 64,
) -> list[list[tuple[tuple[complex, ...], complex]]]:
    """The attractive cycles of many maps at once, one list per map of (points, multiplier) pairs.

    Each map is a pair (coefficients, varphi); the angle only orders the two
    critical points.  Both critical orbits of every map advance together as
    one array: `burn` steps, then `max_period` more, and an orbit's period is
    its first return to its burn's end within chordal distance CLOSURE_TOL.

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
    roots = np.array([_critical_roots(coeffs) for coeffs, _ in maps])
    swap = _second_nearer(roots, [v for _, v in maps])
    roots[swap] = roots[swap, ::-1]
    z = roots.T.ravel()  # the first critical point of every map, then the second one
    all_coeffs = tuple(np.array(k * 2) for k in zip(*(coeffs for coeffs, _ in maps)))
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
    gap = chordal_distance(orbit[1:], orbit[0])
    close = gap < CLOSURE_TOL
    periods = np.where(close.any(axis=0), close.argmax(axis=0) + 1, 0)

    cycles = {}
    for j in np.flatnonzero(periods).tolist():
        # rows are the step's images and the period is the first return, so the points close
        points = tuple(orbit[: periods[j], j].tolist())
        try:
            m = math.prod(map_derivative(p, maps[j % n][0]) for p in points)
        except ValueError:  # through infinity, beyond the escape radius or at a pole
            continue
        if classify_multiplier(m) in ("attractive", "superattractive"):
            cycles[j] = (points, m)
    # the second critical orbit's cycle is the first one's where both attract with one period
    # and its first point lies within chordal 1e-6 of a point of the first cycle
    near = chordal_distance(orbit[0, n:], orbit[:, :n]) < 1e-6
    near &= np.arange(max_period + 1)[:, None] < periods[:n]
    for i in np.flatnonzero((periods[:n] == periods[n:]) & near.any(axis=0)).tolist():
        if i in cycles:
            cycles.pop(i + n, None)
    return [[cycles[j] for j in (i, i + n) if j in cycles] for i in range(n)]


def find_attractive_cycles(
    coeffs: tuple,
    varphi: float,
    burn: int = 10_000,
    max_period: int = 64,
) -> list[tuple[tuple[complex, ...], complex]]:
    """All attractive cycles of the step on coeffs as (points, multiplier) pairs, from the two critical orbits.

    A degree-2 rational map has at most two attractive cycles and each one
    attracts a critical point; varphi orders the two.  Orbits that never
    settle (neutral or chaotic parameter values) contribute nothing.
    """
    return attractive_cycle_batch([(coeffs, varphi)], burn=burn, max_period=max_period)[0]


def inverse_branches(w: complex, coeffs: tuple) -> tuple[complex, complex]:
    """Both preimages of w, roots of (a - w d) z^2 + (b - w e) z + (c - w f) (of d z^2 + e z + f at infinity).

    Where the degree drops the second one is INFINITY (the ideal map's 0 has
    {0, infinity}); a critical value returns its double preimage twice.
    """
    w = as_point(w)
    a, b, c, d, e, f = coeffs
    if is_infinite(w):
        return _quadratic_roots(d, e, f)
    return _quadratic_roots(a - w * d, b - w * e, c - w * f)


def julia_backward_sample(
    varphi: float,
    n_points: int,
    seed: int,
) -> np.ndarray:
    """Backward-orbit sample of the ideal map's Julia set, seeded and deterministic.

    Starts from one point of the repelling two-cycle and at each step jumps
    to a uniformly chosen inverse branch; the first JULIA_TRANSIENT points
    are discarded.  Returns a complex array of n_points entries (a point at
    infinity, never observed in practice, would be stored as INFINITY).
    """
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=JULIA_TRANSIENT + n_points)
    coeffs = ideal_coefficients(varphi)
    z = two_cycle(varphi)[0]
    out = np.empty(n_points, dtype=np.complex128)
    for i, bit in enumerate(bits):
        z = inverse_branches(z, coeffs)[bit]
        if i >= JULIA_TRANSIENT:
            out[i - JULIA_TRANSIENT] = z
    return out


def apply_map_grid(z: np.ndarray, varphi: float) -> np.ndarray:
    """The ideal map on a complex array; no runner calls it, bench/tracing.py wraps it by name."""
    return quadratic_step(z, ideal_coefficients(varphi))


def escape_guard_grid(z: np.ndarray) -> np.ndarray:
    """The escape rule on an array, as quadratic_step applies it: snap |z| > ESCAPE_RADIUS to INFINITY."""
    return np.where(np.abs(z) > ESCAPE_RADIUS, INFINITY, z)
