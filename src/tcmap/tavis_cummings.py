"""Two two-level atoms resonantly coupled to one truncated bosonic mode.

The interaction Hamiltonian H = g sum_i (sigma_i^+ a + sigma_i^- a^dagger)
is block diagonal over excitation number, with 1x1, 2x2 and 3x3 blocks whose
eigensystems are known in closed form.  That makes the full time evolution
of (product state) x (coherent field) available as an O(n_max) assembly of
per-block phases: no dense matrix exponential is ever formed.

Conventions used throughout:
  * times enter as the dimensionless product gt;
  * the atomic state is stored in the basis {|0,0>, |Psi->, |Psi+>, |1,1>}
    with Bell states |Psi+-> = (|0,1> +- |1,0>)/sqrt(2);
  * 4x4 operators and product-basis vectors are ordered
    (|1,1>, |1,0>, |0,1>, |0,0>).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

POISSON_TAIL_BOUND = 1e-12

PRODUCT_BASIS = ("|1,1>", "|1,0>", "|0,1>", "|0,0>")


class TruncationError(ValueError):
    """Raised when a Fock cutoff leaves more than the allowed Poisson tail."""


class ApproximationValidityWarning(UserWarning):
    """Emitted when the coherent-state approximation is used outside 1 << gt << nbar."""


def poisson_tail_mass(nbar: float, nmax: int) -> float:
    """Sum of e^{-nbar} nbar^n / n! for n > nmax, in log space termwise."""
    if nbar == 0.0:
        return 0.0
    total = 0.0
    n = nmax + 1
    while True:
        term = math.exp(-nbar + n * math.log(nbar) - math.lgamma(n + 1))
        total += term
        # terms decay at least geometrically once n > nbar
        if n > nbar and term < 1e-30:
            return total
        n += 1


def default_truncation(nbar: float) -> int:
    """Smallest cutoff with Poisson tail below POISSON_TAIL_BOUND."""
    if nbar == 0.0:
        return 0
    n = max(0, int(nbar))
    while poisson_tail_mass(nbar, n) >= POISSON_TAIL_BOUND:
        n += 1
    return n


@dataclass(frozen=True)
class CoherentFieldSpec:
    """Coherent field |alpha>, alpha = sqrt(nbar) e^{i phi}, with Fock cutoff."""

    nbar: float
    phi: float = 0.0
    nmax: Optional[int] = None

    def __post_init__(self):
        if self.nbar < 0:
            raise ValueError("mean photon number must be >= 0")
        if self.nmax is None:
            object.__setattr__(self, "nmax", default_truncation(self.nbar))
        elif poisson_tail_mass(self.nbar, self.nmax) >= POISSON_TAIL_BOUND:
            raise TruncationError(
                f"nmax={self.nmax} leaves a Poisson tail >= {POISSON_TAIL_BOUND:g} "
                f"for nbar={self.nbar}"
            )

    @property
    def alpha(self) -> complex:
        return math.sqrt(self.nbar) * cmath.exp(1j * self.phi)


def coherent_state_coefficients(alpha: complex, nmax: int) -> np.ndarray:
    """Fock coefficients alpha^n sqrt(e^{-|alpha|^2} / n!) for n = 0..nmax.

    Each one is evaluated whole in log space,
    exp(-|alpha|^2/2 + n log|alpha| - lgamma(n+1)/2 + i n arg(alpha)), so no
    factor underflows at large |alpha|.
    """
    if alpha == 0:
        return np.eye(1, nmax + 1, dtype=np.complex128)[0]
    n = np.arange(nmax + 1)
    log_factorial = np.fromiter(map(math.lgamma, range(1, nmax + 2)), dtype=float, count=nmax + 1)
    log_mag = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) - log_factorial / 2.0
    return np.exp(log_mag + 1j * cmath.phase(alpha) * n)


def poisson_amplitudes(spec: CoherentFieldSpec) -> np.ndarray:
    """Coefficients of the truncated coherent state."""
    return coherent_state_coefficients(spec.alpha, spec.nmax)


def block_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (units of g) and orthogonal transform of excitation block n.

    Block bases: n=0 {|0,0>|0>}; n=1 {|Psi+>|0>, |0,0>|1>};
    n>=2 {|1,1>|n-2>, |Psi+>|n-1>, |0,0>|n>}.  Eigenvalue order matches the
    transform's columns: (0,) then (-w, +w) with w = sqrt(4n-2).
    """
    if n < 0:
        raise ValueError("block index must be >= 0")
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


@dataclass
class AtomPairState:
    """Amplitudes in the basis {|0,0>, |Psi->, |Psi+>, |1,1>}."""

    c0: complex
    cminus: complex
    cplus: complex
    c1: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.c0) ** 2 + abs(self.cminus) ** 2 + abs(self.cplus) ** 2 + abs(self.c1) ** 2)

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def to_product_basis(self) -> np.ndarray:
        """Vector in the product basis (|1,1>, |1,0>, |0,1>, |0,0>)."""
        s = 1.0 / math.sqrt(2.0)
        return np.array(
            [
                self.c1,
                s * (self.cplus - self.cminus),
                s * (self.cplus + self.cminus),
                self.c0,
            ],
            dtype=np.complex128,
        )

    @classmethod
    def from_product_basis(cls, vec) -> "AtomPairState":
        v = np.asarray(vec, dtype=np.complex128)
        s = 1.0 / math.sqrt(2.0)
        return cls(c0=v[3], cminus=s * (v[2] - v[1]), cplus=s * (v[2] + v[1]), c1=v[0])


@dataclass
class JointState:
    """Field coefficient sequences of the four atomic channels after evolution.

    Arrays share one Fock range 0..len-1.  The |Psi-> channel is exactly
    cminus times the (truncated) coherent coefficients: it never couples.
    """

    channel_00: np.ndarray
    channel_psi_plus: np.ndarray
    channel_11: np.ndarray
    channel_psi_minus: np.ndarray
    nbar: float
    phi: float
    gt: float

    def total_norm(self) -> float:
        return math.sqrt(
            float(
                np.sum(np.abs(self.channel_00) ** 2)
                + np.sum(np.abs(self.channel_psi_plus) ** 2)
                + np.sum(np.abs(self.channel_11) ** 2)
                + np.sum(np.abs(self.channel_psi_minus) ** 2)
            )
        )

    def project_field(self, bra_coefficients: np.ndarray) -> AtomPairState:
        """Atomic amplitudes after projecting the field on sum_n b_n |n>."""
        b = np.zeros_like(self.channel_00)
        m = min(len(b), len(bra_coefficients))
        b[:m] = np.asarray(bra_coefficients, dtype=np.complex128)[:m]
        return AtomPairState(
            c0=complex(np.vdot(b, self.channel_00)),
            cminus=complex(np.vdot(b, self.channel_psi_minus)),
            cplus=complex(np.vdot(b, self.channel_psi_plus)),
            c1=complex(np.vdot(b, self.channel_11)),
        )


def evolve_exact(atom: AtomPairState, field: CoherentFieldSpec, gt: float) -> JointState:
    """Exact evolution of atom x coherent field for a dimensionless time gt.

    Assembled from the closed-form block eigensystem.  With N = field.nmax,
    blocks up to N+2 receive population from the truncated initial state, so
    all channel arrays have length N+3 and the evolution is exactly unitary
    on the truncated input (total norm equals the input norm to rounding).
    """
    nmax = field.nmax
    p = poisson_amplitudes(field)
    pad = np.zeros(nmax + 3, dtype=np.complex128)
    pad[: nmax + 1] = p
    c0, cm, cp, c1 = atom.c0, atom.cminus, atom.cplus, atom.c1

    n = np.arange(1, nmax + 3)
    p_n = pad[n]
    p_nm1 = pad[n - 1]
    p_nm2 = np.concatenate(([0.0], pad[: nmax + 1]))  # p_{n-2} with p_{-1} = 0
    s2n1 = np.sqrt(2.0 * n - 1.0)
    omega = np.sqrt(4.0 * n - 2.0)

    # per-block eigenprojections: S_n mixes c0, c1 into the +-omega sector
    s_mix = (np.sqrt(n) * c0 * p_n + np.sqrt(n - 1.0) * c1 * p_nm2) / s2n1
    xi_plus = np.exp(1j * omega * gt) / 2.0 * (cp * p_nm1 - s_mix)
    xi_minus = np.exp(-1j * omega * gt) / 2.0 * (cp * p_nm1 + s_mix)
    xi_zero = (np.sqrt(n - 1.0) * c0 * p_n - np.sqrt(n) * c1 * p_nm2) / s2n1

    chan_00 = np.zeros(nmax + 3, dtype=np.complex128)
    chan_00[0] = c0 * pad[0]
    chan_00[1:] = (np.sqrt(n) * (xi_minus - xi_plus) + np.sqrt(n - 1.0) * xi_zero) / s2n1

    chan_pp = np.zeros(nmax + 3, dtype=np.complex128)
    chan_pp[: nmax + 2] = xi_minus + xi_plus

    chan_11 = np.zeros(nmax + 3, dtype=np.complex128)
    chan_11[: nmax + 1] = ((np.sqrt(n - 1.0) * (xi_minus - xi_plus) - np.sqrt(n) * xi_zero) / s2n1)[1:]

    return JointState(
        channel_00=chan_00,
        channel_psi_plus=chan_pp,
        channel_11=chan_11,
        channel_psi_minus=cm * pad,
        nbar=field.nbar,
        phi=field.phi,
        gt=gt,
    )


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


def f_state_rotation(nbar: float, gt: float) -> float:
    """Rotation angle 2gt/sqrt(4 nbar + 2) of the displaced coherent components."""
    return 2.0 * gt / math.sqrt(4.0 * nbar + 2.0)


def coherent_approx_fields(atom: AtomPairState, field: CoherentFieldSpec, gt: float) -> ApproxChannels:
    """High-photon-number approximation of the evolved field channels.

    Linearizing the block frequencies around nbar+1 turns each channel into
    a superposition of at most three coherent states: two counter-rotated by
    f_state_rotation carrying phase factors exp(+-2i gt (nbar+1+k)/sqrt(4 nbar+2)),
    plus the undisplaced |alpha> term on the k = +-1 channels.
    """
    nbar, phi = field.nbar, field.phi
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
    alpha = field.alpha
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


def ideal_postselection_operator(phi: float) -> np.ndarray:
    """Rank-two projector |Psi-><Psi-| + |Phi-_phi><Phi-_phi| on the atoms.

    |Phi-_phi> = (e^{-i phi}|0,0> - e^{i phi}|1,1>)/sqrt(2); matrix in the
    product basis (|1,1>, |1,0>, |0,1>, |0,0>).
    """
    s = 1.0 / math.sqrt(2.0)
    psi_minus = np.array([0.0, -s, s, 0.0], dtype=np.complex128)
    phi_minus = np.array([-s * cmath.exp(1j * phi), 0.0, 0.0, s * cmath.exp(-1j * phi)], dtype=np.complex128)
    return np.outer(psi_minus, psi_minus.conj()) + np.outer(phi_minus, phi_minus.conj())


@dataclass(frozen=True)
class HomodyneSpec:
    """Local-oscillator phase and quadrature value of one homodyne sample."""

    theta: float
    q: float


def quadrature_mean(alpha: complex, theta: float) -> float:
    """Mean of the quadrature (a e^{-i theta} + a^dag e^{i theta})/sqrt(2) in |alpha>."""
    return math.sqrt(2.0) * (alpha * cmath.exp(-1j * theta)).real


def homodyne_density(spec: HomodyneSpec, alpha: complex) -> float:
    """Quadrature density (1/sqrt(pi)) exp(-(q - q_mean)^2) of a coherent state."""
    d = spec.q - quadrature_mean(alpha, spec.theta)
    return math.exp(-d * d) / math.sqrt(math.pi)


def f_state_lo_phases(theta: float, nbar: float, gt: float) -> tuple[float, float]:
    """Effective local-oscillator phases theta -/+ 2gt/sqrt(4 nbar + 1).

    The counter-rotated coherent components seen through a quadrature
    measurement look like |alpha> probed at these shifted phases, which is
    what makes their homodyne signature separable from |alpha> itself.
    """
    shift = 2.0 * gt / math.sqrt(4.0 * nbar + 1.0)
    return (theta - shift, theta + shift)
