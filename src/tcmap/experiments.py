"""Quantitative studies built on the map and protocol cores.

Covers the stability sweep over the gate angle, the two-state discrimination
Monte Carlo (amplifying the distance between two nearly parallel qubit
states), deterministic basin grids, and the exponential resource count of
the postselected scheme.  The runners iterate one step given by its six
quadratic_step coefficients, the ideal map's or the exact step's alike.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import rational_map as rm
from .sphere import HOMOGENEOUS_LIMIT, as_point, homogeneous, is_infinite

DEFAULT_SEED = 12345

# Points per block of the discrimination Monte Carlo and the basin grid: a
# block's ~20 kernel passes stay in cache.  Blocks run on one thread per core
# this process may use (numpy releases the GIL in its loops); every point is
# computed on its own, so the output does not depend on either constant.
BLOCK = 1 << 16
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
# steps of discrimination overlaps stored between two reductions; memory stays O(samples)
WINDOW = 8


def _run_blocks(n: int, block: int, run) -> None:
    """Call run(lo, hi) on the consecutive blocks of range(n), `block` long, spread over WORKERS threads.

    One block or one worker runs inline.  The first exception (in block order)
    is raised once the running blocks end; blocks not yet started are dropped.
    """
    starts = range(0, n, block)
    workers = min(WORKERS, len(starts))
    if workers <= 1:
        for lo in starts:
            run(lo, min(lo + block, n))
        return
    # imported here so that `import tcmap.cli` stays lean
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(lambda lo: run(lo, min(lo + block, n)), starts):
            pass


def overlap(z1, z2):
    """|<psi(z1)|psi(z2)>| for the states |0> + z|1> (normalized).

    Equals |1 + conj(z1) z2| / sqrt((1+|z1|^2)(1+|z2|^2)) on the real and imaginary parts, or,
    at an entry with a non-finite label (infinity) or one beyond HOMOGENEOUS_LIMIT, on the
    homogeneous coordinates [z:1] and [1:0], so overlap(inf, z) = |z|/sqrt(1+|z|^2).  Each
    entry depends on its own labels alone; sphere points give a float, complex arrays an array.
    """
    scalar = np.ndim(z1) == np.ndim(z2) == 0
    z1, z2 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(z, dtype=np.complex128)) for z in (z1, z2)))
    x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
    with np.errstate(over="ignore", invalid="ignore"):
        re = x1 * x2 + y1 * y2 + 1.0
        im = x1 * y2 - y1 * x2
        n1 = x1 * x1 + y1 * y1 + 1.0
        n2 = x2 * x2 + y2 * y2 + 1.0
        near = np.maximum(n1, n2) <= HOMOGENEOUS_LIMIT**2  # false also at a non-finite label
        re *= re
        re += np.square(im, out=im)
        re /= np.multiply(n1, n2, out=n1)
        out = np.sqrt(re, out=re)
    if not near.all():
        far = ~near
        # conj(u1) u2 + v1 v2 in real parts, so that swapping z1 and z2 only flips the sign of im
        (u1, v1), (u2, v2) = homogeneous(z1[far]), homogeneous(z2[far])
        re = u1.real * u2.real + u1.imag * u2.imag + v1 * v2
        im = u1.real * u2.imag - u1.imag * u2.real
        out[far] = np.hypot(re, im) / np.sqrt((np.abs(u1) ** 2 + v1 * v1) * (np.abs(u2) ** 2 + v2 * v2))
    return float(out[0]) if scalar else out


def fixed_point_multiplier_moduli(varphi: float) -> tuple[float, float, float]:
    """(|lambda(0)|, |lambda(+1)|, |lambda(-1)|) = (|2 cos|, |tan|, |tan|)."""
    t = abs(math.tan(varphi))
    return (abs(2.0 * math.cos(varphi)), t, t)


def phi_sweep(
    varphis: Iterable[float],
    burn: int = 10_000,
    max_period: int = 64,
    tol: float = 1e-8,
) -> list[list[rm.CycleReport]]:
    """The ideal map's attractive cycles at each angle, in grid order; degenerate angles are rejected.

    The critical orbits of all angles are searched as one batch.
    """
    maps = [(rm.ideal_coefficients(v), v) for v in varphis]
    return rm.attractive_cycle_batch(maps, burn=burn, max_period=max_period, tol=tol)


def discrimination_run(
    z1: complex,
    z2: complex,
    sigma: float,
    samples: int,
    steps: int,
    coeffs: tuple,
    seed: int = DEFAULT_SEED,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo of the pairwise overlap under `steps` iterations of the step on coeffs.

    Returns the mean overlap, its rms deviation and the live sample count at
    steps 0..steps.  Each sample perturbs the real and imaginary parts of
    both starting labels with independent Gaussians of standard deviation
    sigma (sample i of z1 is paired with sample i of z2).  A sample whose
    postselection nulls in either state is excluded from that step onward,
    so the failures at step k are samples - sample_counts[k].  Identical
    seeds give bit-identical results, on any number of cores.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    if samples < 1:
        raise ValueError("need at least one sample")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    nulls = rm.success_floor(coeffs) < 2.0 * rm.NULL_OUTCOME_EPS  # else no step nulls, and p is skipped
    rng = np.random.default_rng(seed)
    za, zb = np.zeros(samples, dtype=np.complex128), np.zeros(samples, dtype=np.complex128)
    if sigma > 0:
        # the stream of one (4, samples) draw, row by row; an overflowed draw makes its label infinite
        for part in (za.real, za.imag, zb.real, zb.imag):
            for lo in range(0, samples, BLOCK):
                part[lo : lo + BLOCK] = rng.normal(0.0, sigma, size=min(BLOCK, samples - lo))
    za += complex(z1)
    zb += complex(z2)

    mean = np.zeros(steps + 1)
    rms = np.zeros(steps + 1)
    counts = np.zeros(steps + 1, dtype=np.int64)
    live = np.ones(samples, dtype=bool)
    # overlaps and live masks of one window of steps, a row per step
    ov = np.empty((min(WINDOW, steps + 1), samples))
    alive = np.empty(ov.shape, dtype=bool)

    for k0 in range(0, steps + 1, WINDOW):
        rows = min(WINDOW, steps + 1 - k0)

        def run(lo, hi):
            a, b, ok = za[lo:hi], zb[lo:hi], live[lo:hi].copy()
            for j in range(rows):
                ov[j, lo:hi] = overlap(a, b)
                alive[j, lo:hi] = ok
                if k0 + j == steps:
                    break
                if nulls:
                    a, pa = rm.quadratic_step(a, coeffs, with_p=True)
                    b, pb = rm.quadratic_step(b, coeffs, with_p=True)
                    ok &= ~((pa < rm.NULL_OUTCOME_EPS) | (pb < rm.NULL_OUTCOME_EPS))
                else:
                    a, b = rm.quadratic_step(a, coeffs), rm.quadratic_step(b, coeffs)
            za[lo:hi], zb[lo:hi], live[lo:hi] = a, b, ok

        _run_blocks(samples, BLOCK, run)

        def stats(j, _):
            # the row's overlaps are not needed after its mean, so its deviations overwrite it
            k, row = k0 + j, ov[j] if alive[j].all() else ov[j][alive[j]]
            counts[k] = row.size
            if row.size:
                mean[k] = float(np.mean(row))
                np.square(np.subtract(row, mean[k], out=row), out=row)
                rms[k] = float(np.sqrt(np.mean(row)))

        _run_blocks(rows, 1, stats)  # a row per block
    return mean, rms, counts


def resource_estimate(n: int, varphi: float) -> int:
    """Qubit pairs needed for n iterations, N = ceil((8/cos^2 varphi)^n)."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    rm.ideal_coefficients(varphi)  # the gate rule: raises DegenerateParameterError
    base = 8.0 / math.cos(varphi) ** 2
    try:
        return math.ceil(base**n)
    except OverflowError:
        raise ValueError(f"pair count (8/cos^2 varphi)^n overflows a float at n={n}, varphi={varphi!r}") from None


@dataclass(frozen=True)
class BasinGrid:
    """Row-major classification of a rectangle of initial labels.

    Row 0 is the top of the image (largest imaginary part); attractor_ids
    holds -1 for unresolved cells, iterations the count needed (or max_iter).
    """

    attractor_ids: np.ndarray
    iterations: np.ndarray


def grid_axes(region: tuple[float, float, float, float], width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint coordinates (xs, ys) of the grid's columns and rows, ys from the top down."""
    xmin, xmax, ymin, ymax = region
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("region must have positive extent")
    if width < 1 or height < 1:
        raise ValueError("resolution must be at least 1x1")
    with np.errstate(over="ignore"):
        xs = xmin + (np.arange(width) + 0.5) * (xmax - xmin) / width
        ys = ymax - (np.arange(height) + 0.5) * (ymax - ymin) / height
    # an infinite extent, or a finite one whose (k + 0.5) multiples overflow
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("region extent or midpoints overflow a float")
    return xs, ys


def _attractor_cycles(attractors: Sequence[Sequence[complex]]) -> tuple[tuple[complex, ...], ...]:
    """Each attractor, the sequence of its cycle's points, as a tuple of finite sphere points."""
    cycles = tuple(tuple(as_point(p) for p in cycle) for cycle in attractors)
    if not cycles or not all(cycles):
        raise ValueError("the attractor list and each attractor in it must be non-empty")
    if any(is_infinite(p) for cycle in cycles for p in cycle):
        raise ValueError("attractor points must be finite")
    return cycles


def basin_grid(
    region: tuple[float, float, float, float],
    width: int,
    height: int,
    coeffs: tuple,
    attractors: Sequence[Sequence[complex]],
    tol: float = 0.1,
    max_iter: int = 97,
) -> BasinGrid:
    """Classify every grid midpoint toward the attractors under the step on coeffs.

    Each attractor is the sequence of its cycle's points; their order fixes
    the id, hence the render color.  Before each step the open cells (no
    attractor hit, no null postselection yet) are tested against the
    attractors in list order, and only they are stepped.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    cycle_points = _attractor_cycles(attractors)
    nulls = rm.success_floor(coeffs) < 2.0 * rm.NULL_OUTCOME_EPS  # else no step nulls, and p is skipped

    xs, ys = grid_axes(region, width, height)
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    ids = np.full(z.size, -1, dtype=np.int64)
    iters = np.full(z.size, max_iter, dtype=np.int64)

    def run(lo, hi):
        w = z[lo:hi]
        cells = np.arange(lo, hi)  # the grid indices of the open cells, whose labels w holds
        for k in range(max_iter):
            if not cells.size:
                break
            keep = np.ones(cells.size, dtype=bool)
            for idx, cyc in enumerate(cycle_points):
                hit = np.abs(w - cyc[0]) < tol
                for p in cyc[1:]:
                    hit |= np.abs(w - p) < tol
                hit &= keep
                ids[cells[hit]] = idx
                iters[cells[hit]] = k
                keep &= ~hit
            w, cells = w[keep], cells[keep]
            if nulls:
                w, p_succ = rm.quadratic_step(w, coeffs, with_p=True)
                # a nulled postselection cannot continue; leave the cell unresolved
                alive = p_succ >= rm.NULL_OUTCOME_EPS
                w, cells = w[alive], cells[alive]
            else:
                w = rm.quadratic_step(w, coeffs)

    _run_blocks(z.size, BLOCK, run)
    return BasinGrid(ids.reshape(height, width), iters.reshape(height, width))
