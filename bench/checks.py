"""Output checks for the tcmap benchmark, against references of its own.

Nothing here imports tcmap and nothing compares against a stored copy of an
earlier output.  The references are written from the physics and the file
formats documented in the top-level README:

* the closed-form map f(z) = 2 z cos(varphi) / (e^{-i varphi} + z^2 e^{i varphi}),
  iterated cell by cell, with the README's escape rule (|z| > 1e12 is the
  point at infinity, f(inf) = 0);
* the README basin palette and the row-major midpoint grid;
* the two-atom Tavis-Cummings step operator <alpha| e^{-iHt} |alpha>, built
  from a dense Hamiltonian on the truncated atoms x Fock space and
  diagonalised with numpy.linalg.eigh;
* the discrimination Monte Carlo, regenerated from the same seed.

Every check raises CheckError with a message naming what differs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

ESCAPE_RADIUS = 1e12
POISSON_TAIL_BOUND = 1e-12
NULL_PROBABILITY = 1e-14
UNRESOLVED_RGB = (255, 255, 0)
# a deciding distance this close to tol is decided by rounding, not by the map
BORDERLINE = 1e-9


class CheckError(Exception):
    """An output that disagrees with the benchmark's reference."""


# --- file readers ----------------------------------------------------------


def read_ppm(path) -> np.ndarray:
    """Pixels of a binary P6 file as a (height, width, 3) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise CheckError(f"{path}: not a P6 PPM with maxval 255")
    try:
        w, h = (int(tok) for tok in parts[1].split())
    except ValueError:
        raise CheckError(f"{path}: bad PPM size line {parts[1]!r}") from None
    if len(parts[3]) != 3 * w * h:
        raise CheckError(f"{path}: {len(parts[3])} pixel bytes for {w}x{h}")
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w, 3)


def read_table(path, header: str) -> np.ndarray:
    """Numeric body of a CSV whose first line must be exactly `header`."""
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise CheckError(f"{path}: header {first!r}, expected {header!r}")
    ncol = header.count(",") + 1
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if body.shape[1] != ncol:
        raise CheckError(f"{path}: {body.shape[1]} columns, expected {ncol}")
    return body


def read_operator(path) -> np.ndarray:
    """A dumped step operator: four lines of eight numbers (re,im row-major)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) != 4:
        raise CheckError(f"{path}: {len(lines)} lines, expected 4")
    try:
        vals = np.array([[float(tok) for tok in ln.split(",")] for ln in lines])
    except ValueError as exc:
        raise CheckError(f"{path}: {exc}") from None
    if vals.shape != (4, 8):
        raise CheckError(f"{path}: operator rows must hold 8 numbers")
    return vals[:, 0::2] + 1j * vals[:, 1::2]


# --- the ideal map -----------------------------------------------------------


def chordal(z: complex, w: complex) -> float:
    return 2.0 * abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


class IdealMap:
    """Closed-form f on the Riemann sphere; None is the point at infinity."""

    def __init__(self, varphi: float):
        self.varphi = varphi
        self.c = math.cos(varphi)
        self.em = cmath.exp(-1j * varphi)
        self.ep = cmath.exp(1j * varphi)

    def step(self, z):
        if z is None:
            return 0j
        if abs(z) > ESCAPE_RADIUS:
            return 0j  # z is the point at infinity, and f(inf) = 0
        den = self.em + z * z * self.ep
        if den == 0:
            return None
        return 2.0 * z * self.c / den

    def derivative(self, z: complex) -> complex:
        den = self.em + z * z * self.ep
        return 2.0 * self.c * (self.em - z * z * self.ep) / (den * den)

    def attracting_cycles(self, burn: int = 10_000, max_period: int = 64):
        """Attracting cycles reached by the critical points +-e^{-i varphi}, in that order.

        Returns (points, |multiplier|) pairs.  A degree-2 rational map has at
        most two attracting cycles and each attracts a critical point.
        """
        found = []
        for z in (self.em, -self.em):
            for _ in range(burn):
                z = self.step(z)
            if z is None or abs(z) > ESCAPE_RADIUS:
                continue
            pts = [z]
            w = z
            for _ in range(max_period):
                w = self.step(w)
                if w is None or abs(w) > ESCAPE_RADIUS:
                    break
                if chordal(w, z) < 1e-8:
                    lam = math.prod(abs(self.derivative(p)) for p in pts)
                    if lam < 1.0 and not any(min(abs(z - q) for q in other) < 1e-6 for other, _ in found):
                        found.append((tuple(pts), lam))
                    break
                pts.append(w)
        return found


class ExactMap:
    """The exact step z -> z' through a 4x4 operator M after the gate on atom B."""

    NULL = "null"

    def __init__(self, varphi: float, matrix: np.ndarray):
        self.gate = np.array([cmath.exp(1j * varphi), -cmath.exp(-1j * varphi)] * 2)
        self.m = matrix

    def step(self, z):
        if z is None:
            v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # |1,1>
        elif abs(z) <= 1.0:
            v = np.array([z * z, z, z, 1.0]) / (1.0 + abs(z) ** 2)
        else:
            w = 1.0 / z
            v = np.array([1.0, w, w, w * w]) / (1.0 + abs(w) ** 2)
        u = self.m @ (self.gate * v)
        if abs(u[1]) ** 2 + abs(u[3]) ** 2 < NULL_PROBABILITY:
            return self.NULL
        if u[3] == 0:
            return None
        return complex(u[1] / u[3])


def classify(z, step, cycles, tol: float, max_iter: int):
    """(attractor id, iterations, margin) of one starting point.

    `margin` is the smallest |distance - tol| seen while deciding, so a
    disagreement with margin below BORDERLINE is a rounding tie.
    """
    margin = math.inf
    for k in range(max_iter):
        if z is not None:
            for idx, pts in enumerate(cycles):
                d = min(abs(z - p) for p in pts)
                margin = min(margin, abs(d - tol))
                if d < tol:
                    return idx, k, margin
        z = step(z)
        if z is ExactMap.NULL:
            break
    return -1, max_iter, margin


# --- basins ------------------------------------------------------------------


def basin_palette(ids: np.ndarray, its: np.ndarray, max_iter: int) -> np.ndarray:
    """README palette: grey ramp for id 0, dark ramp for id 1, yellow for -1."""
    ids = np.asarray(ids)
    its = np.clip(np.asarray(its), 0, max_iter)
    if np.any((ids < -1) | (ids > 1)):
        raise CheckError(f"attractor ids outside -1..1: {sorted(set(np.unique(ids)) - {-1, 0, 1})}")
    v = np.where(ids == 0, 200 - (140 * its) // max_iter, 40 - (40 * its) // max_iter)
    rgb = np.repeat(v[..., None], 3, axis=-1).astype(np.uint8)
    rgb[ids == -1] = UNRESOLVED_RGB
    return rgb


def midpoints(region, width: int, height: int):
    xmin, xmax, ymin, ymax = region
    xs = np.array([xmin + (j + 0.5) * (xmax - xmin) / width for j in range(width)])
    ys = np.array([ymax - (i + 0.5) * (ymax - ymin) / height for i in range(height)])
    return xs, ys


NOT_IN_PALETTE = -2


def _decode_palette(rgb: np.ndarray, max_iter: int):
    """Per pixel: id (-1, 0, 1 or NOT_IN_PALETTE) and k (exact for id 0, else -1).

    Every palette colour but yellow is a grey level, and the id 0 ramp
    (60..200) and the id 1 ramp (0..40) do not overlap.
    """
    id_of = np.full(256, NOT_IN_PALETTE)
    k_of = np.full(256, -1)
    for k in range(max_iter + 1):
        id_of[40 - (40 * k) // max_iter] = 1
        v = 200 - (140 * k) // max_iter
        id_of[v], k_of[v] = 0, k
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    grey = (r == g) & (g == b)
    ids = np.where(grey, id_of[r], NOT_IN_PALETTE)
    ks = np.where(grey, k_of[r], -1)
    yellow = np.all(rgb == np.array(UNRESOLVED_RGB, dtype=np.uint8), axis=-1)
    ids[yellow] = -1
    ks[yellow] = max_iter
    return ids, ks


def check_symmetry_arrays(ids: np.ndarray, its: np.ndarray) -> None:
    """f is odd: z -> -z swaps ids 0 and 1, keeps -1, keeps iteration counts."""
    mirror_ids = ids[::-1, ::-1]
    expected = np.where(ids >= 0, 1 - ids, -1)
    bad = np.count_nonzero(mirror_ids != expected) + np.count_nonzero(its[::-1, ::-1] != its)
    if bad:
        raise CheckError(f"basin is not symmetric under z -> -z in {bad} cells")


def check_symmetry_pixels(rgb: np.ndarray, max_iter: int) -> None:
    """The same symmetry read off the image alone (id 1's ramp is not injective)."""
    ids, ks = _decode_palette(rgb, max_iter)
    if np.any(ids == NOT_IN_PALETTE):
        raise CheckError(f"{np.count_nonzero(ids == NOT_IN_PALETTE)} pixels are not in the basin palette")
    mid, mrgb = ids[::-1, ::-1], rgb[::-1, ::-1]
    dark = basin_palette(np.ones_like(ks), np.maximum(ks, 0), max_iter)
    bad = np.count_nonzero((ids == 0) & np.any(mrgb != dark, axis=-1))
    bad += np.count_nonzero((ids == 1) & (mid != 0))
    bad += np.count_nonzero((ids == -1) & (mid != -1))
    if bad:
        raise CheckError(f"basin image is not symmetric under z -> -z in {bad} pixels")


@dataclass
class BasinSpec:
    """What a basin command was asked for."""

    region: tuple
    width: int
    height: int
    max_iter: int = 97
    tol: float = 0.1


def check_basin(ppm_path, spec: BasinSpec, step, cycles, rng, samples: int,
                csv_path=None, symmetric: bool = True) -> int:
    """Check a basin image (and CSV dump); returns the number of rounding ties seen.

    `step` and `cycles` are the benchmark's own map and attractors; a seeded
    sample of `samples` cells is classified with them and must agree.
    """
    rgb = read_ppm(ppm_path)
    if rgb.shape[:2] != (spec.height, spec.width):
        raise CheckError(f"{ppm_path}: image is {rgb.shape[1]}x{rgb.shape[0]}, asked {spec.width}x{spec.height}")
    xs, ys = midpoints(spec.region, spec.width, spec.height)
    if csv_path is not None:
        body = read_table(csv_path, "x,y,attractor_id,iterations")
        if body.shape[0] != spec.width * spec.height:
            raise CheckError(f"{csv_path}: {body.shape[0]} rows for {spec.width}x{spec.height} cells")
        x = body[:, 0].reshape(spec.height, spec.width)
        y = body[:, 1].reshape(spec.height, spec.width)
        off = max(np.max(np.abs(x - xs[None, :])), np.max(np.abs(y - ys[:, None])))
        if not off <= 1e-12:
            raise CheckError(f"{csv_path}: x,y differ from the cell midpoints by {off:.3g}")
        ids = body[:, 2].astype(np.int64).reshape(spec.height, spec.width)
        its = body[:, 3].astype(np.int64).reshape(spec.height, spec.width)
        if np.any((its < 0) | (its > spec.max_iter)):
            raise CheckError(f"{csv_path}: iteration counts outside 0..{spec.max_iter}")
        if np.any(its[ids == -1] != spec.max_iter):
            raise CheckError(f"{csv_path}: unresolved cells must carry iterations = max_iter")
        bad = np.count_nonzero(np.any(basin_palette(ids, its, spec.max_iter) != rgb, axis=-1))
        if bad:
            raise CheckError(f"{ppm_path}: {bad} pixels differ from the palette of the CSV's (id, k)")
        if symmetric:
            check_symmetry_arrays(ids, its)
    elif symmetric:
        check_symmetry_pixels(rgb, spec.max_iter)
    else:
        ids, _ = _decode_palette(rgb, spec.max_iter)
        if np.any(ids == NOT_IN_PALETTE):
            raise CheckError(f"{ppm_path}: {np.count_nonzero(ids == NOT_IN_PALETTE)} pixels are not in the basin palette")

    ties = 0
    for q in rng.choice(spec.width * spec.height, size=min(samples, spec.width * spec.height), replace=False):
        i, j = divmod(int(q), spec.width)
        ref_id, ref_k, margin = classify(complex(xs[j], ys[i]), step, cycles, spec.tol, spec.max_iter)
        want = basin_palette(np.array([ref_id]), np.array([ref_k]), spec.max_iter)[0]
        if np.array_equal(rgb[i, j], want):
            continue
        if margin < BORDERLINE:
            ties += 1
            continue
        raise CheckError(
            f"{ppm_path}: cell ({i},{j}) at {complex(xs[j], ys[i])} is pixel {tuple(rgb[i, j])}, "
            f"the reference classifies it as id {ref_id} after {ref_k} steps"
        )
    return ties


# --- the stability sweep ------------------------------------------------------


SWEEP_HEADER = "varphi,abs_lambda_0,abs_lambda_plus1,abs_lambda_minus1,detected_period,detected_abs_lambda"


def check_sweep(csv_path, grid: int, rng, samples: int,
                phi_min: float = 0.0, phi_max: float = 2.0 * math.pi) -> None:
    """Analytic multipliers, guaranteed cycles, and a seeded sample of critical orbits."""
    body = read_table(csv_path, SWEEP_HEADER)
    angles = [phi_min + (k + 0.5) * (phi_max - phi_min) / grid for k in range(grid)]
    angles = [v for v in angles if abs(math.cos(v)) >= 1e-12]
    starts = np.flatnonzero(np.r_[True, body[1:, 0] != body[:-1, 0]])
    if len(starts) != len(angles):
        raise CheckError(f"{csv_path}: {len(starts)} angles, expected {len(angles)}")
    off = np.max(np.abs(body[starts, 0] - np.array(angles)))
    if not off <= 1e-12:
        raise CheckError(f"{csv_path}: varphi column differs from the grid by {off:.3g}")
    phi = body[:, 0]
    expect = np.stack([np.abs(2 * np.cos(phi)), np.abs(np.tan(phi)), np.abs(np.tan(phi))], axis=1)
    err = np.max(np.abs(body[:, 1:4] - expect) / np.maximum(expect, 1.0))
    if not err <= 1e-12:
        raise CheckError(f"{csv_path}: abs_lambda columns differ from |2cos|,|tan|,|tan| by {err:.3g}")

    groups = np.split(body, starts[1:])
    for rows in groups:
        v = float(rows[0, 0])
        period, lam = rows[:, 4], rows[:, 5]
        if len(rows) > 2:
            raise CheckError(f"{csv_path}: {len(rows)} cycles at varphi={v!r}; a quadratic map has at most 2")
        if np.any(period == 0) and len(rows) != 1:
            raise CheckError(f"{csv_path}: 'no cycle' row mixed with cycles at varphi={v!r}")
        if np.any(period < 0) or np.any(period != np.round(period)):
            raise CheckError(f"{csv_path}: bad detected_period at varphi={v!r}")
        if np.any(period > 0) and not np.all(lam[period > 0] < 1.0):
            raise CheckError(f"{csv_path}: non-attracting cycle reported at varphi={v!r}")
        # +1 and -1 share |lambda| = |tan varphi|; 0 has |lambda| = |2 cos varphi|
        for target, count in ((abs(math.tan(v)), 2), (abs(2 * math.cos(v)), 1)):
            if target < 1.0 and np.count_nonzero((period == 1) & (np.abs(lam - target) <= 1e-9)) != count:
                raise CheckError(
                    f"{csv_path}: varphi={v!r} misses an attracting fixed point with |lambda|={target!r}"
                )

    # a seeded sample of angles, re-derived from the critical orbits; cycles with
    # |lambda| near 1 converge too slowly to compare, so only clear attractors count
    for g in rng.choice(len(groups), size=min(samples, len(groups)), replace=False):
        rows = groups[g]
        v = float(rows[0, 0])
        ref = [(len(pts), lam) for pts, lam in IdealMap(v).attracting_cycles() if lam < 0.99]
        got = [(int(p), lam) for p, lam in rows[:, 4:6] if p > 0 and lam < 0.99]
        for p, lam in ref:
            if not any(p == q and abs(lam - m) <= 1e-6 for q, m in got):
                raise CheckError(f"{csv_path}: varphi={v!r} misses a period-{p} cycle with |lambda|={lam:.9g}")
        for q, m in got:
            if not any(p == q and abs(lam - m) <= 1e-6 for p, lam in ref):
                raise CheckError(f"{csv_path}: varphi={v!r} reports a period-{q} cycle the critical orbits do not reach")


# --- the Tavis-Cummings step operator ----------------------------------------------


def fock_cutoff(nbar: float) -> int:
    """Smallest N whose Poisson tail sum_{n>N} is below POISSON_TAIL_BOUND."""
    if nbar == 0:
        return 0
    n = np.arange(int(nbar + 40 * math.sqrt(nbar) + 100))
    pmf = np.exp(-nbar + n * math.log(nbar) - np.array([math.lgamma(k + 1.0) for k in n]))
    above = np.cumsum(pmf[::-1])[::-1][1:]  # above[N] = sum_{n>N} pmf
    return int(np.argmax(above < POISSON_TAIL_BOUND))


def dense_step_operator(nbar: float) -> np.ndarray:
    """<alpha| e^{-iHt} |alpha> on the atoms, gt = pi sqrt(nbar)/2, real alpha = sqrt(nbar).

    H = sum_i (sigma_i^+ a + sigma_i^- a^dag) is built densely on atoms x
    Fock {0..N+2}, which holds every state the truncated |alpha> (cutoff N)
    can reach, and exponentiated through numpy.linalg.eigh.  The atomic
    basis is (|1,1>, |1,0>, |0,1>, |0,0>) with |1> the excited state.
    """
    nmax = fock_cutoff(nbar)
    dim = nmax + 3
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    raise_one = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1><0| in (|1>, |0>)
    raise_pair = np.kron(raise_one, np.eye(2)) + np.kron(np.eye(2), raise_one)
    h = np.kron(raise_pair, a)
    h = h + h.T
    energies, vecs = np.linalg.eigh(h)
    gt = math.pi * math.sqrt(nbar) / 2.0
    u = (vecs * np.exp(-1j * energies * gt)) @ vecs.T
    n = np.arange(nmax + 1)
    alpha = np.zeros(dim)
    alpha[: nmax + 1] = np.exp(0.5 * (-nbar + n * math.log(nbar) - np.array([math.lgamma(k + 1.0) for k in n])))
    bra = np.kron(np.eye(4), alpha[None, :])
    return bra @ u @ bra.T


def ideal_projector() -> np.ndarray:
    """|Psi-><Psi-| + |Phi-><Phi-|, Phi- = (|0,0> - |1,1>)/sqrt 2, field phase 0."""
    s = 1.0 / math.sqrt(2.0)
    psi = np.array([0.0, -s, s, 0.0])
    phi = np.array([-s, 0.0, 0.0, s])
    return np.outer(psi, psi) + np.outer(phi, phi)


def check_operator(path, dense=None, previous_distance=None) -> float:
    """Check a dumped operator; returns ||M - P_ideal||_2 for the ladder check."""
    m = read_operator(path)
    if not np.all(np.isfinite(m)):
        raise CheckError(f"{path}: non-finite entries")
    norm = float(np.linalg.norm(m, 2))
    if not norm <= 1.0 + 1e-9:
        raise CheckError(f"{path}: ||M||_2 = {norm!r} > 1, not a compression of a unitary")
    swap = [0, 2, 1, 3]
    defect = float(np.max(np.abs(m - m[np.ix_(swap, swap)])))
    if not defect <= 1e-12:
        raise CheckError(f"{path}: exchange-symmetry defect {defect:.3g}")
    dist = float(np.linalg.norm(m - ideal_projector(), 2))
    if not dist < 0.5:
        raise CheckError(f"{path}: ||M - P_ideal||_2 = {dist:.3g}, no longer a postselection step")
    if previous_distance is not None and not dist < previous_distance:
        raise CheckError(f"{path}: ||M - P_ideal||_2 = {dist:.3g} did not shrink from {previous_distance:.3g}")
    if dense is not None:
        err = float(np.max(np.abs(m - dense)))
        if not err <= 1e-12:
            raise CheckError(f"{path}: differs from the dense reference by {err:.3g}")
    return dist


# --- discrimination --------------------------------------------------------------


def _ideal_homogeneous(varphi: float):
    c, em, ep = math.cos(varphi), cmath.exp(-1j * varphi), cmath.exp(1j * varphi)

    def step(u, v):
        return 2.0 * c * u * v, em * v * v + ep * u * u

    return step


def _exact_homogeneous(varphi: float, matrix: np.ndarray):
    gate = np.array([cmath.exp(1j * varphi), -cmath.exp(-1j * varphi)] * 2)[:, None]

    def step(u, v):
        out = matrix @ (gate * np.stack([u * u, u * v, u * v, v * v]))
        return out[1], out[3]

    return step


def check_discrimination(csv_path, z1: complex, z2: complex, sigma: float, samples: int,
                         steps: int, seed: int, varphi: float = 0.0, matrix=None) -> None:
    """Regenerate the seeded noise and iterate it with the reference step.

    Labels are kept as homogeneous pairs [u:v] (z = u/v), rescaled every step,
    so poles and the point at infinity need no special case.
    """
    body = read_table(csv_path, "step,mean_overlap,rms,failures")
    if body.shape[0] != steps + 1 or not np.array_equal(body[:, 0], np.arange(steps + 1)):
        raise CheckError(f"{csv_path}: step column is not 0..{steps}")
    if np.any(body[:, 3] != 0):
        raise CheckError(f"{csv_path}: {int(body[:, 3].max())} failed samples")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(4, samples)) if sigma > 0 else np.zeros((4, samples))
    ua, ub = z1 + noise[0] + 1j * noise[1], z2 + noise[2] + 1j * noise[3]
    va, vb = np.ones(samples, dtype=complex), np.ones(samples, dtype=complex)
    step = _ideal_homogeneous(varphi) if matrix is None else _exact_homogeneous(varphi, matrix)
    for k in range(steps + 1):
        ov = np.abs(np.conj(ua) * ub + np.conj(va) * vb) / np.sqrt(
            (np.abs(ua) ** 2 + np.abs(va) ** 2) * (np.abs(ub) ** 2 + np.abs(vb) ** 2)
        )
        mean = float(ov.mean())
        rms = math.sqrt(np.mean((ov - mean) ** 2))
        if not (abs(body[k, 1] - mean) <= 1e-9 and abs(body[k, 2] - rms) <= 1e-9):
            raise CheckError(
                f"{csv_path}: step {k} mean overlap {float(body[k, 1])!r}, rms {float(body[k, 2])!r}; "
                f"reference {mean!r}, {rms!r}"
            )
        ua, va = step(ua, va)
        ub, vb = step(ub, vb)
        for u, v in ((ua, va), (ub, vb)):
            scale = np.maximum(np.abs(u), np.abs(v))
            u /= scale
            v /= scale
