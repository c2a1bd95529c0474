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
"""

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from tcmap.experiments import grid_axes
from tcmap.rational_map import CycleReport, ideal_coefficients, step_point
from tcmap.sphere import INFINITY, as_point, homogeneous, is_infinite
from tcmap.tavis_cummings import AtomPairState, coherent_state_coefficients


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
    """Atomic amplitudes after the gate on atom B, before the field interaction.

    The per-atom state is (|0> + z e^{i phi} |1>)/sqrt(1+|z|^2); z at
    infinity means |1,1>.  All four amplitudes are carried: the |Psi+>
    component drops out of the ideal postselection but feeds the exact one.
    """
    z = as_point(z)
    eg = cmath.exp(1j * varphi)
    if is_infinite(z):
        return AtomPairState(c0=0j, cminus=0j, cplus=0j, c1=eg * cmath.exp(2j * phi))
    norm = 1.0 + abs(z) ** 2
    zph = z * cmath.exp(1j * phi)
    return AtomPairState(
        c0=-cmath.exp(-1j * varphi) / norm,
        cminus=math.sqrt(2.0) * zph * math.cos(varphi) / norm,
        cplus=1j * math.sqrt(2.0) * zph * math.sin(varphi) / norm,
        c1=zph * zph * eg / norm,
    )


def amplitude_step(z, varphi):
    """The ideal step (z', p_success) from the postselection amplitudes.

    The field projection keeps the |Psi-> and |Phi-> = (|0,0> - |1,1>)/sqrt2
    components, and the |0>_B projection then contributes 1/2.  A pole is
    |amp0| <= 1e-14 |amp1|, and z' there is INFINITY.
    """
    amps = step_amplitudes(z, varphi)
    amp1 = -amps.cminus / math.sqrt(2.0)
    amp0 = (amps.c0 - amps.c1) / math.sqrt(2.0) / math.sqrt(2.0)
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

    `attractors` is a sequence of cycles (CycleReport, point list, or a bare
    point).  The first attractor within tolerance wins, checked in list
    order before each map application; after max_iter unsuccessful checks
    the cell is unresolved and carries iterations = max_iter.
    """
    cycles = [
        item.points if isinstance(item, CycleReport) else item if isinstance(item, (list, tuple)) else [item]
        for item in attractors
    ]
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


def coherent_approx_fields(atom: AtomPairState, nbar: float, gt: float, phi: float = 0.0) -> ApproxChannels:
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
    d_plus = (cmath.exp(1j * phi) * atom.c0 + cmath.exp(-1j * phi) * atom.c1) / math.sqrt(2.0)
    d_minus = (cmath.exp(1j * phi) * atom.c0 - cmath.exp(-1j * phi) * atom.c1) / math.sqrt(2.0)
    eta_minus = (atom.cplus + d_plus) / 2.0
    eta_plus = (atom.cplus - d_plus) / 2.0
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
