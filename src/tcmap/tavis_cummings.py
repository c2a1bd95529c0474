"""Two two-level atoms resonantly coupled to one truncated bosonic mode.

The interaction Hamiltonian H = g sum_i (sigma_i^+ a + sigma_i^- a^dagger)
is block diagonal over excitation number, with 1x1, 2x2 and 3x3 blocks whose
propagators are known in closed form.  That makes the full time evolution
of (product state) x (coherent field) available as an O(n_max) assembly of
per-block 3x3 propagators: no dense matrix exponential is ever formed.

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
from dataclasses import dataclass

import numpy as np

POISSON_TAIL_BOUND = 1e-12

_S = 1.0 / math.sqrt(2.0)
# columns |1,1>, |Psi+>, |0,0>, |Psi-> in the product basis (|1,1>, |1,0>, |0,1>, |0,0>)
BELL_TO_PRODUCT = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, _S, 0.0, -_S], [0.0, _S, 0.0, _S], [0.0, 0.0, 1.0, 0.0]]
)


def _log_factorials(n: np.ndarray) -> np.ndarray:
    """log(n!) for an integer array n."""
    return np.fromiter(map(math.lgamma, (n + 1).tolist()), dtype=float, count=n.size)


def _poisson_tails(nbar: float, first: int) -> np.ndarray:
    """Poisson tails T[j] = sum_{k >= first+j} e^{-nbar} nbar^k / k!, one table.

    The terms run in log space up to k = end = int(nbar + 15 sqrt(nbar) + 80),
    where by Bennett's inequality the mass left above is below 1e-48 for every
    nbar from 1e-12 to 1e12, so the table ends with a 0 for k > end.  Each
    tail is summed smallest term first.  For nbar = 0 the table is [0].
    """
    if nbar == 0.0:
        return np.zeros(1)
    k = np.arange(first, int(nbar + 15.0 * math.sqrt(nbar) + 80.0) + 1)
    log_terms = -nbar + k * math.log(nbar) - _log_factorials(k)
    return np.append(np.cumsum(np.exp(log_terms)[::-1])[::-1], 0.0)


def poisson_tail_mass(nbar: float, nmax: int) -> float:
    """Sum of e^{-nbar} nbar^n / n! for n > nmax."""
    return float(_poisson_tails(nbar, nmax + 1)[0])


def default_truncation(nbar: float) -> int:
    """Smallest cutoff with Poisson tail below POISSON_TAIL_BOUND."""
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar!r}")
    n = int(nbar)
    return n + int(np.argmax(_poisson_tails(nbar, n + 1) < POISSON_TAIL_BOUND))


def coherent_state_coefficients(alpha: complex, nmax: int) -> np.ndarray:
    """Fock coefficients alpha^n sqrt(e^{-|alpha|^2} / n!) for n = 0..nmax.

    Each one is evaluated whole in log space,
    exp(-|alpha|^2/2 + n log|alpha| - lgamma(n+1)/2 + i n arg(alpha)), so no
    factor underflows at large |alpha|.
    """
    if alpha == 0:
        return np.eye(1, nmax + 1, dtype=np.complex128)[0]
    n = np.arange(nmax + 1)
    log_mag = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) - _log_factorials(n) / 2.0
    return np.exp(log_mag + 1j * cmath.phase(alpha) * n)


def poisson_amplitudes(nbar: float, phi: float = 0.0) -> np.ndarray:
    """Coefficients of |alpha>, alpha = sqrt(nbar) e^{i phi}, up to the cutoff default_truncation(nbar)."""
    nmax = default_truncation(nbar)  # first, so that a negative nbar fails there by name
    return coherent_state_coefficients(math.sqrt(nbar) * cmath.exp(1j * phi), nmax)


@dataclass
class AtomPairState:
    """Amplitudes in the basis {|0,0>, |Psi->, |Psi+>, |1,1>}."""

    c0: complex
    cminus: complex
    cplus: complex
    c1: complex

    def norm(self) -> float:
        return math.sqrt(abs(self.c0) ** 2 + abs(self.cminus) ** 2 + abs(self.cplus) ** 2 + abs(self.c1) ** 2)

    def to_product_basis(self) -> np.ndarray:
        """Vector in the product basis (|1,1>, |1,0>, |0,1>, |0,0>)."""
        return BELL_TO_PRODUCT @ np.array([self.c1, self.cplus, self.c0, self.cminus], dtype=np.complex128)


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


def block_propagators(nblocks: int, gt: float) -> np.ndarray:
    """exp(-i gt H_n) of the excitation blocks n = 1..nblocks, shape (nblocks, 3, 3).

    Block n couples (|1,1>|n-2>, |Psi+>|n-1>, |0,0>|n>) through
    H_n = [[0, a, 0], [a, 0, b], [0, b, 0]] with a = sqrt(2n-2), b = sqrt(2n).
    Since H_n^3 = w^2 H_n with w = sqrt(4n-2),
    exp(-i gt H_n) = 1 - i sin(w gt)/w H_n + (cos(w gt) - 1)/w^2 H_n^2.
    Block 1 is the same formula with a = 0 (its |1,1> state does not exist).
    """
    n = np.arange(1, nblocks + 1, dtype=float)
    a, b, w = np.sqrt(2.0 * n - 2.0), np.sqrt(2.0 * n), np.sqrt(4.0 * n - 2.0)
    s, c = -1j * np.sin(w * gt) / w, (np.cos(w * gt) - 1.0) / w**2
    # filled entry by entry, with H_n^2 = [[a^2, 0, ab], [0, w^2, 0], [ab, 0, b^2]], so that
    # no (nblocks, 3, 3) temporaries are made: the table itself takes 144 bytes per block
    u = np.empty((nblocks, 3, 3), dtype=np.complex128)
    u[:, 0, 0], u[:, 1, 1], u[:, 2, 2] = 1.0 + c * a * a, 1.0 + c * w * w, 1.0 + c * b * b
    u[:, 0, 1] = u[:, 1, 0] = s * a
    u[:, 1, 2] = u[:, 2, 1] = s * b
    u[:, 0, 2] = u[:, 2, 0] = c * a * b
    return u


def block_inputs(p: np.ndarray) -> np.ndarray:
    """Rows (p_{n-2}, p_{n-1}, p_n) for the blocks n = 1..len(p)+1, zero outside 0..len(p)-1.

    These are the field amplitudes that an atomic input |1,1>, |Psi+>, |0,0>
    times sum_n p_n |n> places in each block; blocks past len(p)+1 stay empty.
    """
    pad = np.concatenate(([0.0], p, [0.0, 0.0]))
    return np.stack((pad[:-2], pad[1:-1], pad[2:]), axis=1)


def evolve_exact(atom: AtomPairState, nbar: float, gt: float, phi: float = 0.0) -> JointState:
    """Exact evolution of atom x coherent field |sqrt(nbar) e^{i phi}> for a dimensionless time gt.

    Each excitation block evolves by block_propagators.  Blocks up to
    N+2 receive population from the initial state truncated at N =
    default_truncation(nbar), so all channel arrays have length N+3 and the
    evolution is exactly unitary on the truncated input (total norm equals
    the input norm to rounding).
    """
    p = poisson_amplitudes(nbar, phi)
    x = block_inputs(p) * np.array([atom.c1, atom.cplus, atom.c0])
    y = np.einsum("nij,nj->ni", block_propagators(len(p) + 1, gt), x)
    return JointState(
        channel_00=np.concatenate(([atom.c0 * p[0]], y[:, 2])),
        channel_psi_plus=np.append(y[:, 1], 0.0),
        channel_11=np.concatenate((y[1:, 0], [0.0, 0.0])),
        channel_psi_minus=atom.cminus * np.append(p, [0.0, 0.0]),
        nbar=nbar,
        phi=phi,
        gt=gt,
    )


def quadrature_mean(alpha: complex, theta: float) -> float:
    """Mean of the quadrature (a e^{-i theta} + a^dag e^{i theta})/sqrt(2) in |alpha>."""
    return math.sqrt(2.0) * (alpha * cmath.exp(-1j * theta)).real


def homodyne_density(q: float, theta: float, alpha: complex) -> float:
    """Quadrature density (1/sqrt(pi)) exp(-(q - q_mean)^2) of |alpha> at local-oscillator phase theta."""
    d = q - quadrature_mean(alpha, theta)
    return math.exp(-d * d) / math.sqrt(math.pi)


def f_state_lo_phases(theta: float, nbar: float, gt: float) -> tuple[float, float]:
    """Effective local-oscillator phases theta -/+ 2gt/sqrt(4 nbar + 1).

    The counter-rotated coherent components seen through a quadrature
    measurement look like |alpha> probed at these shifted phases, which is
    what makes their homodyne signature separable from |alpha> itself.
    """
    shift = 2.0 * gt / math.sqrt(4.0 * nbar + 1.0)
    return (theta - shift, theta + shift)
