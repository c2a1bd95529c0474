"""Second codings of the protocol and the map, kept as independent test oracles.

The package computes each of these another way (or, for the ideal map's
fixed points and the plane distance, not at all): the two-copy state and the
postselection amplitudes are what `protocol.step_coefficients` and the step
kernel encode, the rank-two postselection projector is the large-nbar limit
of `exact_step_operator`, the orbit and the basin loop are what `basin_grid`
runs, the homogeneous overlap is what `overlap` evaluates in the plane chart,
and the block eigensystem is what `block_propagators` sums in closed form.
The paper's coherent-state approximation of the evolved field channels is a
second physics model of the step that `exact_step_operator` sums exactly.
The tests compare the package against them.  `apply_map` is no second
coding: it is `step_point` at the ideal map's coefficients, in scalar form,
and `grid_points` is the basin grid's midpoints as one complex array.
`validated_cycle` checks that points close under a step before it gives
their (points, multiplier) pair, the multiplier the product of the package's
`map_derivative` along them, and `full_range_step_operator` is
`exact_step_operator`'s sum taken over every Fock level from 0, the leading
levels whose amplitude is 0 included.  The
rest is what only tests need: reading back the files `tcmap.output` writes,
and the norms, product-basis vector and field projection of the package's
Bell-basis arrays, ordered (|1,1>, |Psi+>, |0,0>, |Psi->) as the columns of
BELL_TO_PRODUCT.
"""

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from tcmap.experiments import grid_axes
from tcmap.protocol import default_interaction_time
from tcmap.rational_map import ideal_coefficients, map_derivative, step_point
from tcmap.sphere import INFINITY, as_point, chordal_distance, homogeneous, is_infinite
from tcmap.tavis_cummings import (
    BELL_TO_PRODUCT,
    block_inputs,
    block_propagators,
    coherent_state_coefficients,
    poisson_amplitudes,
)


def read_csv(path):
    """(header, rows) of a CSV written by the package; a cell that parses as a float is one."""

    def cell(tok):
        try:
            return float(tok)
        except ValueError:
            return tok

    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [[cell(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


def read_ppm(path):
    """A binary PPM written by `output.write_ppm` as a (height, width, 3) uint8 image."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6\n"):
        raise ValueError("not a P6 PPM written by this package")
    rest = data[3:]
    nl = rest.index(b"\n")
    w, h = (int(tok) for tok in rest[:nl].split())
    rest = rest[nl + 1 :]
    nl = rest.index(b"\n")
    if rest[:nl] != b"255":
        raise ValueError("expected maxval 255")
    return np.frombuffer(rest[nl + 1 :], dtype=np.uint8).reshape(h, w, 3)


def atom_norm(atom):
    """The norm of a Bell-basis atom's four amplitudes."""
    return math.sqrt(sum(abs(c) ** 2 for c in atom))


def to_product_basis(atom):
    """A Bell-basis atom as a vector in the product basis (|1,1>, |1,0>, |0,1>, |0,0>)."""
    return BELL_TO_PRODUCT @ np.asarray(atom, dtype=np.complex128)


def total_norm(joint):
    """The norm of an evolved state over its four channel rows."""
    return math.sqrt(float(np.sum(np.abs(joint) ** 2)))


def project_field(joint, bra_coefficients):
    """The Bell-basis atomic amplitudes of an evolved state after projecting the field on sum_n b_n |n>."""
    b = np.zeros(joint.shape[1], dtype=np.complex128)
    m = min(len(b), len(bra_coefficients))
    b[:m] = np.asarray(bra_coefficients, dtype=np.complex128)[:m]
    return np.array([np.vdot(b, row) for row in joint])


def validated_cycle(points, coeffs, tol=1e-8):
    """The (points, multiplier) pair of `points` under the step on coeffs, once each image lies within
    tol (chordal) of the next point; ValueError otherwise."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("empty point list")
    for i, p in enumerate(pts):
        gap = chordal_distance(step_point(p, coeffs)[0], pts[(i + 1) % len(pts)])
        if gap > tol:
            raise ValueError(f"points do not close under the map at index {i} "
                                 f"(distance {gap:.3e} > {tol:.3e})")
    if any(is_infinite(p) for p in pts):
        # f' is taken in the plane chart; the ideal map has no such cycle (inf -> 0 -> 0)
        raise ValueError("cycle through infinity is not supported")
    return tuple(pts), math.prod(map_derivative(p, coeffs) for p in pts)


def full_range_step_operator(nbar, gt=None, phi=0.0):
    """<alpha| e^{-iHt} |alpha> in the product basis, summed over the blocks 1..N+2 of every level 0..N."""
    p = poisson_amplitudes(nbar, phi)
    q = block_inputs(p)
    u = block_propagators(len(p) + 1, default_interaction_time(nbar) if gt is None else gt)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[:3, :3] = np.einsum("ni,nij,nj->ij", q.conj(), u, q)
    m[2, 2] += abs(p[0]) ** 2
    m[3, 3] = np.vdot(p, p)
    return BELL_TO_PRODUCT @ m @ BELL_TO_PRODUCT.T


def fixed_points(varphi):
    """The ideal map's three fixed points -1, 0, +1, independent of the gate angle."""
    del varphi
    return (-1.0 + 0j, 0j, 1.0 + 0j)


def grid_points(region, width, height):
    """Complex midpoints, shape (height, width), top row = max imaginary part."""
    xs, ys = grid_axes(region, width, height)
    return xs[None, :] + 1j * ys[:, None]


def plane_distance(z, w):
    """Euclidean distance |z - w|; inf when exactly one point is infinite."""
    return 0.0 if is_infinite(z) and is_infinite(w) else abs(z - w)


def homogeneous_overlap(z1, z2):
    """|<psi(z1)|psi(z2)>| of complex arrays, every entry on the homogeneous coordinates [u:v].

    |conj(u1) u2 + v1 v2| / (|[u1:v1]| |[u2:v2]|), with [z:1] for a finite
    label, [1:0] for a non-finite one and the scaled chart of
    `homogeneous` beyond its limit.
    """
    (u1, v1), (u2, v2) = homogeneous(z1), homogeneous(z2)
    re = u1.real * u2.real + u1.imag * u2.imag + v1 * v2
    im = u1.real * u2.imag - u1.imag * u2.real
    return np.hypot(re, im) / np.sqrt((np.abs(u1) ** 2 + v1 * v1) * (np.abs(u2) ** 2 + v2 * v2))


def product_state_vector(z):
    """Normalized two-copy state of |0> + z|1> in the product basis.

    Evaluated through 1/z for |z| > 1 so that arbitrarily large labels and
    the point at infinity (the state |1,1>) stay exact; the two evaluation
    branches differ only by a global phase.
    """
    z = as_point(z)
    if is_infinite(z):
        return np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    if abs(z) <= 1.0:
        return np.array([z * z, z, z, 1.0], dtype=np.complex128) / (1.0 + abs(z) ** 2)
    w = 1.0 / z
    return np.array([1.0, w, w, w * w], dtype=np.complex128) / (1.0 + abs(w) ** 2)


def ideal_postselection_operator(phi: float) -> np.ndarray:
    """Rank-two projector |Psi-><Psi-| + |Phi-_phi><Phi-_phi| on the atoms.

    |Phi-_phi> = (e^{-i phi}|0,0> - e^{i phi}|1,1>)/sqrt(2); matrix in the
    product basis (|1,1>, |1,0>, |0,1>, |0,0>).
    """
    s = 1.0 / math.sqrt(2.0)
    psi_minus = np.array([0.0, -s, s, 0.0], dtype=np.complex128)
    phi_minus = np.array([-s * cmath.exp(1j * phi), 0.0, 0.0, s * cmath.exp(-1j * phi)], dtype=np.complex128)
    return np.outer(psi_minus, psi_minus.conj()) + np.outer(phi_minus, phi_minus.conj())


def step_amplitudes(z, varphi, phi=0.0):
    """Bell-basis atomic amplitudes (|1,1>, |Psi+>, |0,0>, |Psi->) after the gate on atom B,
    before the field interaction.

    The per-atom state is (|0> + z e^{i phi} |1>)/sqrt(1+|z|^2); z at
    infinity means |1,1>.  All four amplitudes are carried: the |Psi+>
    component drops out of the ideal postselection but feeds the exact one.
    """
    z = as_point(z)
    eg = cmath.exp(1j * varphi)
    if is_infinite(z):
        return np.array([eg * cmath.exp(2j * phi), 0j, 0j, 0j])
    norm = 1.0 + abs(z) ** 2
    zph = z * cmath.exp(1j * phi)
    return np.array([
        zph * zph * eg / norm,
        1j * math.sqrt(2.0) * zph * math.sin(varphi) / norm,
        -cmath.exp(-1j * varphi) / norm,
        math.sqrt(2.0) * zph * math.cos(varphi) / norm,
    ])


def amplitude_step(z, varphi):
    """The ideal step (z', p_success) from the postselection amplitudes.

    The field projection keeps the |Psi-> and |Phi-> = (|0,0> - |1,1>)/sqrt2
    components, and the |0>_B projection then contributes 1/2.  A pole is
    |amp0| <= 1e-14 |amp1|, and z' there is INFINITY.
    """
    c1, _, c0, cminus = step_amplitudes(z, varphi)
    amp1 = -cminus / math.sqrt(2.0)
    amp0 = (c0 - c1) / math.sqrt(2.0) / math.sqrt(2.0)
    p_success = abs(amp1) ** 2 + abs(amp0) ** 2
    if abs(amp0) <= 1e-14 * abs(amp1):
        return INFINITY, p_success
    return amp1 / amp0, p_success


def apply_map(z, varphi):
    """One application of the ideal map with exact sphere semantics (f(INFINITY) = 0, poles go to INFINITY)."""
    return step_point(z, ideal_coefficients(varphi))[0]


def iterate_map(z0, varphi, n):
    """Orbit [z0, f(z0), ..., f^n(z0)] of length n+1."""
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    orbit = [as_point(z0)]
    for _ in range(n):
        orbit.append(apply_map(orbit[-1], varphi))
    return orbit


@dataclass(frozen=True)
class BasinCell:
    """Outcome of basin classification; attractor_id None means unresolved."""

    attractor_id: Optional[int]
    iterations: int


def classify_basin_point(z, varphi, attractors, tol=0.1, max_iter=97):
    """Iterations until the orbit of z comes within tol of an attractor point.

    `attractors` is a sequence of cycles (a point list or a bare point).
    The first attractor within tolerance wins, checked in list order before
    each map application; after max_iter unsuccessful checks the cell is
    unresolved and carries iterations = max_iter.
    """
    cycles = [item if isinstance(item, (list, tuple)) else [item] for item in attractors]
    z = as_point(z)
    for k in range(max_iter):
        for idx, pts in enumerate(cycles):
            if any(plane_distance(z, p) < tol for p in pts):
                return BasinCell(idx, k)
        z = apply_map(z, varphi)
    return BasinCell(None, max_iter)


class ApproximationValidityWarning(UserWarning):
    """Emitted when the coherent-state approximation is used outside 1 << gt << nbar."""


@dataclass(frozen=True)
class ApproxChannels:
    """Coherent-state decomposition of the evolved field channels.

    Each channel k in {-1, 0, +1} (atomic states |0,0>, |Psi+>, |1,1>) is a
    short superposition sum_j w_j |coherent(a_j)>, valid for 1 << gt << nbar.
    """

    terms: dict
    eta_minus: complex
    eta_plus: complex
    d_minus: complex
    d_plus: complex
    nbar: float
    phi: float
    gt: float

    def channel_coefficients(self, k: int, nmax: int) -> np.ndarray:
        vec = np.zeros(nmax + 1, dtype=np.complex128)
        for weight, a in self.terms[k]:
            vec += weight * coherent_state_coefficients(a, nmax)
        return vec


def coherent_approx_fields(atom: np.ndarray, nbar: float, gt: float, phi: float = 0.0) -> ApproxChannels:
    """High-photon-number approximation of the evolved field channels.

    Linearizing the block frequencies around nbar+1 turns each channel into
    a superposition of at most three coherent states: two counter-rotated by
    2gt/sqrt(4 nbar + 2) carrying phase factors exp(+-2i gt (nbar+1+k)/sqrt(4 nbar+2)),
    plus the undisplaced |alpha> term on the k = +-1 channels.
    """
    if gt >= nbar:
        warnings.warn(
            f"coherent-state approximation assumes gt << nbar (gt={gt}, nbar={nbar})",
            ApproximationValidityWarning,
            stacklevel=2,
        )
    elif gt <= 1.0:
        warnings.warn(
            f"residual overlaps decay like exp(-(gt)^2/2); gt={gt} is not >> 1",
            ApproximationValidityWarning,
            stacklevel=2,
        )
    c1, cplus, c0, _ = atom
    d_plus = (cmath.exp(1j * phi) * c0 + cmath.exp(-1j * phi) * c1) / math.sqrt(2.0)
    d_minus = (cmath.exp(1j * phi) * c0 - cmath.exp(-1j * phi) * c1) / math.sqrt(2.0)
    eta_minus = (cplus + d_plus) / 2.0
    eta_plus = (cplus - d_plus) / 2.0
    alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
    root = math.sqrt(4.0 * nbar + 2.0)
    rot = cmath.exp(2j * gt / root)
    terms = {}
    for k in (-1, 0, 1):
        pref = cmath.exp(1j * k * phi) / math.sqrt(1.0 + abs(k))
        drift = cmath.exp(2j * gt * (nbar + 1.0 + k) / root)
        chan = [
            (pref * eta_minus / drift, alpha / rot),
            (pref * ((-1) ** k) * eta_plus * drift, alpha * rot),
        ]
        if k != 0:
            chan.append((pref * (-k) * d_minus, alpha))
        terms[k] = chan
    return ApproxChannels(
        terms=terms,
        eta_minus=eta_minus,
        eta_plus=eta_plus,
        d_minus=d_minus,
        d_plus=d_plus,
        nbar=nbar,
        phi=phi,
        gt=gt,
    )


def block_eigensystem(n):
    """Eigenvalues (units of g) and orthogonal transform of excitation block n.

    Block bases: n=0 {|0,0>|0>}; n=1 {|Psi+>|0>, |0,0>|1>};
    n>=2 {|1,1>|n-2>, |Psi+>|n-1>, |0,0>|n>}.  Eigenvalue order matches the
    transform's columns: (0,) then (-w, +w) with w = sqrt(4n-2).
    """
    if n == 0:
        return np.array([0.0]), np.array([[1.0]])
    if n == 1:
        vals = np.array([-math.sqrt(2.0), math.sqrt(2.0)])
        o = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        return vals, o
    w = math.sqrt(4.0 * n - 2.0)
    vals = np.array([0.0, -w, w])
    o = np.array(
        [
            [-math.sqrt(2.0 * n), math.sqrt(n - 1.0), math.sqrt(n - 1.0)],
            [0.0, -math.sqrt(2.0 * n - 1.0), math.sqrt(2.0 * n - 1.0)],
            [math.sqrt(2.0 * n - 2.0), math.sqrt(n), math.sqrt(n)],
        ]
    ) / w
    return vals, o
