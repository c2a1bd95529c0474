import math

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import (
    ApproximationValidityWarning,
    block_eigensystem,
    coherent_approx_fields,
    ideal_postselection_operator,
    project_field,
    to_product_basis,
    total_norm,
)
from tcmap.tavis_cummings import (
    block_inputs,
    block_propagators,
    coherent_state_coefficients,
    default_truncation,
    evolve_exact,
    f_state_lo_phases,
    homodyne_density,
    poisson_amplitudes,
    poisson_tail_mass,
    quadrature_mean,
)


def random_atom(rng):
    """Bell-basis amplitudes (|1,1>, |Psi+>, |0,0>, |Psi->), drawn in the order c0, c-, c+, c1."""
    v = rng.normal(size=8)
    c = v[0::2] + 1j * v[1::2]
    c = c / np.linalg.norm(c)
    return c[[3, 2, 0, 1]]


# a Bell-basis state with all its weight on |0,0>
ATOM_00 = np.array([0j, 0j, 1.0 + 0j, 0j])


def block_hamiltonian(n):
    """The excitation-number block, built independently of the module."""
    if n == 0:
        return np.zeros((1, 1))
    if n == 1:
        return math.sqrt(2.0) * np.array([[0.0, 1.0], [1.0, 0.0]])
    a = math.sqrt(2.0 * (n - 1.0))
    b = math.sqrt(2.0 * n)
    return np.array([[0.0, a, 0.0], [a, 0.0, b], [0.0, b, 0.0]])


def brute_force_channels(atom, nbar, phi, gt, extra=12):
    """Oracle: dense expm of the truncated Hamiltonian in the product basis, rows in the Bell order."""
    p0 = poisson_amplitudes(nbar, phi)
    F = len(p0) - 1 + extra
    a = np.diag(np.sqrt(np.arange(1, F + 1)), 1)
    ad = a.conj().T
    I2 = np.eye(2)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1><0| in basis (|1>, |0>)
    sm = sp.T

    def k3(x, y, z):
        return np.kron(np.kron(x, y), z)

    H = k3(sp, I2, a) + k3(sm, I2, ad) + k3(I2, sp, a) + k3(I2, sm, ad)
    at = to_product_basis(atom)
    p = np.zeros(F + 1, dtype=complex)
    p[: len(p0)] = p0
    psi = np.kron(at, p)
    psi_t = (expm(-1j * H * gt) @ psi).reshape(4, F + 1)
    s = math.sqrt(2.0)
    return np.array([psi_t[0], (psi_t[2] + psi_t[1]) / s, psi_t[3], (psi_t[2] - psi_t[1]) / s])


# ------------------------------------------------------------------ Poisson

def test_poisson_vacuum():
    p = poisson_amplitudes(0.0)
    assert p.shape == (1,)
    assert p[0] == 1.0


def test_poisson_mode_weight_at_nbar_ten():
    p = poisson_amplitudes(10.0)
    expected = math.exp(-10.0) * 10.0**10 / math.factorial(10)
    assert abs(abs(p[10]) ** 2 - expected) < 1e-14


def test_poisson_mass_is_normalized_up_to_the_tail():
    for nbar in (0.3, 2.0, 25.0, 130.0):
        p = poisson_amplitudes(nbar)
        total = float(np.sum(np.abs(p) ** 2))
        assert total <= 1.0 + 1e-15
        assert total >= 1.0 - 1e-12


def test_truncation_tail_bound():
    for nbar in (1e-6, 1.0, 10.0, 80.0, 1e6):
        nmax = default_truncation(nbar)
        assert poisson_tail_mass(nbar, nmax) < 1e-12
        assert poisson_tail_mass(nbar, nmax - 1) >= 1e-12
    assert default_truncation(1e-6) == 1
    assert default_truncation(1e6) == 1007043


@pytest.mark.parametrize("nbar", [-1.0, -1e-300, math.inf, math.nan])
def test_default_truncation_rejects_a_bad_nbar(nbar):
    with pytest.raises(ValueError, match="nbar"):
        default_truncation(nbar)
    with pytest.raises(ValueError, match="nbar"):
        poisson_amplitudes(nbar)


def test_alpha_reconstruction():
    # p_1 / p_0 = alpha = sqrt(nbar) e^{i phi}
    p = poisson_amplitudes(9.0, 0.5)
    assert abs(p[1] / p[0] - 3.0 * np.exp(0.5j)) < 1e-15


def test_coherent_amplitudes_stay_normalized_at_large_nbar():
    for nbar in (10.0, 1400.0, 1e4, 1e5):
        nmax = int(nbar + 12.0 * math.sqrt(nbar) + 20.0)
        p = coherent_state_coefficients(math.sqrt(nbar) * np.exp(0.3j), nmax)
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-10
        assert abs(abs(p[int(nbar)]) - (2.0 * math.pi * nbar) ** -0.25) < 1e-2 * (2.0 * math.pi * nbar) ** -0.25


@pytest.mark.parametrize("alpha", [0.0, 3.0 * np.exp(0.4j), 45.0])
def test_coherent_amplitudes_from_a_first_level_are_the_tail_of_the_full_table(alpha):
    full = coherent_state_coefficients(alpha, 2100)
    for first in (0, 1, 5, 1900, 2100):
        assert np.array_equal(coherent_state_coefficients(alpha, 2100, first), full[first:])


# ------------------------------------------------------------------- blocks

def test_block_eigenvalues():
    vals0, _ = block_eigensystem(0)
    assert np.allclose(vals0, [0.0])
    vals1, _ = block_eigensystem(1)
    assert np.allclose(sorted(vals1), [-math.sqrt(2.0), math.sqrt(2.0)])
    vals2, _ = block_eigensystem(2)
    assert np.allclose(sorted(vals2), [-math.sqrt(6.0), 0.0, math.sqrt(6.0)])


def test_block_transform_diagonalizes_the_hamiltonian():
    for n in (1, 2, 5, 40):
        vals, o = block_eigensystem(n)
        h = block_hamiltonian(n)
        assert np.max(np.abs(o.T @ o - np.eye(len(vals)))) < 1e-12
        d = o.T @ h @ o
        assert np.max(np.abs(d - np.diag(vals))) < 1e-12


def test_block_propagators_are_unitary():
    gt = 1.37
    table = block_propagators(23, gt)
    for n in (1, 2, 7, 23):
        vals, o = block_eigensystem(n)
        u = o @ np.diag(np.exp(-1j * vals * gt)) @ o.T
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(vals)))) < 1e-12
        # the closed-form table; block 1 lacks the |1,1> state, its 2x2 block is the last two rows
        want = expm(-1j * gt * block_hamiltonian(n))
        assert np.max(np.abs(table[n - 1][-len(vals):, -len(vals):] - want)) < 1e-12


def test_blocks_from_a_first_level_are_rows_of_the_full_tables():
    p = poisson_amplitudes(30.0, 0.2)
    gt = 2.9
    rows, table = block_inputs(p), block_propagators(len(p) + 1, gt)  # blocks 1..len(p)+1
    for first in (1, 2, 17, len(p) - 1):
        # levels below first are zero: block first holds (0, 0, p_first), and blocks 1..first-1 are empty
        window = p.copy()
        window[:first] = 0.0
        q = block_inputs(window[first:], first)
        assert np.array_equal(q, block_inputs(window)[first - 1:])
        assert not block_inputs(window)[: first - 1].any()
        assert np.array_equal(block_propagators(len(q), gt, first), table[first - 1:])
    assert np.array_equal(block_inputs(p, 0), rows)


# -------------------------------------------------------------- evolve_exact

def test_evolution_matches_dense_expm_oracle():
    rng = np.random.default_rng(0)
    for nbar, phi, gt in ((0.5, 0.0, 0.3), (3.0, 0.7, 1.7), (8.0, 2.1, 4.0)):
        atom = random_atom(rng)
        joint = evolve_exact(atom, nbar, gt, phi)
        oracle = brute_force_channels(atom, nbar, phi, gt)
        for name, got, want in zip(("11", "psi_plus", "00", "psi_minus"), joint, oracle):
            m = min(len(got), len(want))
            assert np.max(np.abs(got[:m] - want[:m])) < 1e-12, name
            assert np.max(np.abs(want[m:])) < 1e-12


def test_identity_evolution_reproduces_the_input():
    rng = np.random.default_rng(1)
    atom = random_atom(rng)
    joint = evolve_exact(atom, 6.0, 0.0, 1.1)
    p = poisson_amplitudes(6.0, 1.1)
    proj = project_field(joint, p)
    mass = float(np.sum(np.abs(p) ** 2))
    for k in range(4):
        assert abs(proj[k] - atom[k] * mass) < 1e-12


def test_dark_channel_is_exactly_proportional():
    atom = np.array([0j, 0j, 0j, 0.4 + 0.3j])
    for gt in (0.0, 2.0, 11.0):
        joint = evolve_exact(atom, 7.0, gt, 0.9)
        p = poisson_amplitudes(7.0, 0.9)
        expected = np.zeros_like(joint[3])
        expected[: len(p)] = atom[3] * p
        # bit-for-bit: the dark channel never couples
        assert np.array_equal(joint[3], expected)
        assert np.max(np.abs(joint[2])) == 0.0
        assert np.max(np.abs(joint[1])) == 0.0
        assert np.max(np.abs(joint[0])) == 0.0


def test_norm_conservation_over_random_inputs():
    rng = np.random.default_rng(2)
    nbars = (5.0, 10.0, 50.0)
    for i in range(100):
        atom = random_atom(rng)
        gt = rng.uniform(0.0, 8.0)
        joint = evolve_exact(atom, nbars[i % 3], gt)
        assert abs(total_norm(joint) - 1.0) < 1e-10


def test_excited_input_norm_at_protocol_time():
    joint = evolve_exact(ATOM_00, 10.0, math.pi * math.sqrt(10.0) / 2.0)
    assert abs(total_norm(joint) - 1.0) < 1e-10


# ------------------------------------------------- coherent-state approximation

def test_eta_weights_reconstruct_cplus():
    rng = np.random.default_rng(3)
    atom = random_atom(rng)
    with pytest.warns(ApproximationValidityWarning):
        ch = coherent_approx_fields(atom, 50.0, gt=0.5, phi=0.2)
    assert abs((ch.eta_minus + ch.eta_plus) - atom[1]) < 1e-14


def test_approximation_overlaps_with_the_exact_channels():
    rng = np.random.default_rng(4)
    atom = random_atom(rng)
    nmax = default_truncation(100.0)
    for gt, floor in ((2.5, 0.99), (5.0, 0.98)):
        joint = evolve_exact(atom, 100.0, gt, 0.4)
        approx = coherent_approx_fields(atom, 100.0, gt, 0.4)
        exact = {-1: joint[2], 0: joint[1], 1: joint[0]}
        for k in (-1, 0, 1):
            a = approx.channel_coefficients(k, nmax)
            e = exact[k][: nmax + 1]
            ov = abs(np.vdot(a, e)) / (np.linalg.norm(a) * np.linalg.norm(e))
            assert ov > floor, (k, gt, ov)


def test_validity_warnings():
    with pytest.warns(ApproximationValidityWarning):
        coherent_approx_fields(ATOM_00, 4.0, gt=5.0)  # gt >= nbar
    with pytest.warns(ApproximationValidityWarning):
        coherent_approx_fields(ATOM_00, 4.0, gt=0.5)  # gt <= 1
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")
        coherent_approx_fields(ATOM_00, 4.0, gt=2.0)  # inside the window: silent


@pytest.mark.filterwarnings("ignore::oracles.ApproximationValidityWarning")
def test_displaced_components_decouple_from_alpha_like_a_gaussian():
    # |<alpha|alpha e^{i theta}>| = exp(-nbar (1 - cos theta)) ~ exp(-(gt)^2/2)
    nbar = 1e4
    for gt in (1.0, 2.0, 3.0):
        ch = coherent_approx_fields(ATOM_00, nbar, gt)
        alpha = math.sqrt(nbar)
        for weight, a in ch.terms[0]:
            theta = np.angle(a / alpha)
            got = math.exp(-nbar * (1.0 - math.cos(theta)))
            assert abs(got - math.exp(-(gt**2) / 2.0)) < 2e-4
            assert got < math.exp(-(gt**2) / 2.0) * 1.01


# ---------------------------------------------------------- postselection op

def test_projector_is_idempotent_and_self_adjoint():
    rng = np.random.default_rng(5)
    for phi in rng.uniform(0.0, 2.0 * math.pi, size=20):
        m = ideal_postselection_operator(phi)
        assert np.max(np.abs(m @ m - m)) < 1e-14
        assert np.max(np.abs(m - m.conj().T)) < 1e-14


def test_projector_has_rank_two():
    m = ideal_postselection_operator(0.8)
    assert abs(np.trace(m) - 2.0) < 1e-14


def test_projector_reproduces_the_postselected_state():
    rng = np.random.default_rng(6)
    for _ in range(10):
        atom = random_atom(rng)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        m = ideal_postselection_operator(phi)
        out = m @ to_product_basis(atom)
        c1, _, c0, cminus = atom
        q1sq = abs(cminus) ** 2 + abs(np.exp(1j * phi) * c0 - np.exp(-1j * phi) * c1) ** 2 / 2.0
        assert abs(float(np.linalg.norm(out)) ** 2 - q1sq) < 1e-12
        # surviving state: cminus |Psi-> + d |Phi-_phi>
        d = (np.exp(1j * phi) * c0 - np.exp(-1j * phi) * c1) / math.sqrt(2.0)
        s = 1.0 / math.sqrt(2.0)
        expected = cminus * np.array([0, -s, s, 0]) + d * np.array(
            [-s * np.exp(1j * phi), 0, 0, s * np.exp(-1j * phi)]
        )
        assert np.max(np.abs(out - expected)) < 1e-12


# ------------------------------------------------------------------ homodyne

def test_homodyne_peak_value():
    # center the Gaussian: quadrature mean zero at theta = pi/2 for real alpha
    alpha = 2.0 + 0j
    assert abs(quadrature_mean(alpha, math.pi / 2.0)) < 1e-14
    val = homodyne_density(0.0, math.pi / 2.0, alpha)
    assert abs(val - 1.0 / math.sqrt(math.pi)) < 1e-12


def test_homodyne_density_normalizes():
    alpha = 1.3 * np.exp(0.4j)
    for theta in (0.0, 0.7):
        qs = np.linspace(-12.0, 12.0, 20001)
        dens = [homodyne_density(float(q), theta, alpha) for q in qs]
        integral = np.trapezoid(dens, qs)
        assert abs(integral - 1.0) < 1e-8


def test_f_state_centers_are_phase_shifted():
    theta, nbar, gt = 0.3, 25.0, 2.0
    tp, tm = f_state_lo_phases(theta, nbar, gt)
    shift = 2.0 * gt / math.sqrt(4.0 * nbar + 1.0)
    assert abs(tp - (theta - shift)) < 1e-15
    assert abs(tm - (theta + shift)) < 1e-15
    # probing a rotated coherent state equals probing alpha at the shifted phase
    alpha = math.sqrt(nbar) + 0j
    rotated = alpha * np.exp(1j * shift)
    for q in (-1.0, 0.5, 2.0):
        lhs = homodyne_density(q, theta, rotated)
        rhs = homodyne_density(q, theta - shift, alpha)
        assert abs(lhs - rhs) < 1e-12


def test_f_state_shift_does_not_overflow_at_huge_nbar():
    # 4 nbar overflows here; the shift gt / sqrt(nbar + 1/4) is still pi/2 at the protocol time
    nbar = 5e307
    tp, tm = f_state_lo_phases(0.0, nbar, math.pi * math.sqrt(nbar) / 2.0)
    assert abs(tm - math.pi / 2.0) < 1e-12
    assert tp == -tm
