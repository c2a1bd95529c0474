import cmath
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    amplitude_step,
    apply_map,
    atom_norm,
    full_range_step_operator,
    ideal_postselection_operator,
    product_state_vector,
    step_amplitudes,
    to_product_basis,
)
from tcmap.protocol import (
    default_interaction_time,
    exact_step_operator,
    exchange_symmetric_defect,
    gate_unitary,
    read_step_operator,
    step_coefficients,
    write_step_operator,
)
from tcmap.rational_map import (
    NULL_OUTCOME_EPS,
    ideal_coefficients,
    is_degenerate,
    quadratic_step,
    step_point,
)
from tcmap.sphere import INFINITY, is_infinite
from tcmap.tavis_cummings import BELL_TO_PRODUCT, evolve_exact, poisson_amplitudes

# the rank-two postselection projector as a step operator: the large-nbar limit of the exact step
IDEAL = ideal_postselection_operator(0.0)


def closed_form_success_probability(z, varphi):
    # independent route: the published closed form of the projection probability
    zsq = abs(z) ** 2
    q1sq = (
        1.0 + zsq**2 + 4.0 * zsq * math.cos(varphi) ** 2 + 2.0 * (z * z * cmath.exp(2j * varphi)).real
    ) / (2.0 * (1.0 + zsq) ** 2)
    return q1sq / 2.0


# ----------------------------------------------------------------- the gate

def test_gate_at_zero_angle():
    g = gate_unitary(0.0)
    assert np.array_equal(g, np.diag([1.0 + 0j, -1.0 + 0j]))


def test_gate_is_unitary():
    for v in (0.0, 0.3, 2.2):
        g = gate_unitary(v)
        assert np.max(np.abs(g @ g.conj().T - np.eye(2))) < 1e-15


def test_gate_at_half_pi():
    g = gate_unitary(math.pi / 2.0)
    assert np.max(np.abs(g - np.diag([1j, 1j]))) < 1e-15


# ------------------------------------------------------------ product state

def test_product_state_is_normalized():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        v = product_state_vector(z)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14
    assert np.array_equal(product_state_vector(INFINITY), [1, 0, 0, 0])


def test_product_state_branches_agree_up_to_phase():
    z = 1.5 - 0.8j
    inner = product_state_vector(z)
    w = 1.0 / z
    direct = np.array([z * z, z, z, 1.0]) / (1.0 + abs(z) ** 2)
    ratio = inner[0] / direct[0]
    assert abs(abs(ratio) - 1.0) < 1e-14
    assert np.max(np.abs(inner - ratio * direct)) < 1e-14


# ---------------------------------------------------------- step amplitudes

def test_step_amplitudes_at_the_origin():
    c1, cplus, c0, cminus = step_amplitudes(0j, varphi=0.0)
    assert abs(c0 + 1.0) < 1e-15
    assert c1 == 0j and cminus == 0j and cplus == 0j


def test_step_amplitudes_at_one():
    c1, _, c0, cminus = step_amplitudes(1.0, varphi=0.0, phi=0.0)
    assert abs(abs(c0) - 0.5) < 1e-15
    assert abs(abs(c1) - 0.5) < 1e-15
    assert abs(cminus - math.sqrt(2.0) / 2.0) < 1e-15


def test_step_amplitudes_are_normalized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a = step_amplitudes(z, varphi=rng.uniform(0, 2 * math.pi), phi=rng.uniform(0, 2 * math.pi))
        assert abs(atom_norm(a) - 1.0) < 1e-12
    a = step_amplitudes(INFINITY, varphi=0.9, phi=0.4)
    assert abs(atom_norm(a) - 1.0) < 1e-15


def test_step_amplitudes_agree_with_the_gated_product_state():
    # same physics through the 4x4 route: gate on atom B applied to |psi psi>
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        varphi = rng.uniform(0, 2 * math.pi)
        a = to_product_basis(step_amplitudes(z, varphi))
        gp, gm = cmath.exp(1j * varphi), -cmath.exp(-1j * varphi)
        b = np.array([gp, gm, gp, gm]) * (np.array([z * z, z, z, 1.0]) / (1.0 + abs(z) ** 2))
        assert np.max(np.abs(a - b)) < 1e-14


# --------------------------------------------------------------- ideal step

def ideal_step(z, varphi):
    """One ideal protocol step: the step kernel on the ideal projector's coefficients."""
    return step_point(z, ideal_coefficients(varphi))


def test_ideal_step_first_link_of_the_chain():
    z, p = ideal_step(0.2, 0.0)
    assert abs(z - 0.3846153846153846) < 1e-14
    assert abs(p - 0.28698224852071004) < 1e-14


def test_ideal_step_at_the_origin():
    z, p = ideal_step(0j, 0.0)
    assert z == 0j
    assert abs(p - 0.25) < 1e-15


def test_ideal_step_matches_the_rational_map():
    # two independent code paths: postselection amplitudes vs the closed map,
    # and the step's success probability vs its published closed form
    rng = np.random.default_rng(3)
    for _ in range(100):
        varphi = rng.uniform(0, 2 * math.pi)
        if abs(math.cos(varphi)) < 1e-3:
            continue
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        got, p = amplitude_step(z, varphi)
        want = apply_map(z, varphi)
        if is_infinite(want):
            assert is_infinite(got) or abs(got) > 1e10
        else:
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))
        assert abs(p - closed_form_success_probability(z, varphi)) < 1e-12
        assert abs(ideal_step(z, varphi)[1] - closed_form_success_probability(z, varphi)) < 1e-12


def test_ideal_step_success_bound_and_minimizer():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        varphi = rng.uniform(0, 2 * math.pi)
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(math.cos(varphi)) < 1e-6:
            continue
        _, p = ideal_step(z, varphi)
        assert p >= math.cos(varphi) ** 2 / 4.0 - 1e-12
    # the minimum sits at the pole z = i e^{-i varphi}
    varphi = 0.6
    zmin = 1j * cmath.exp(-1j * varphi)
    znew, p = ideal_step(zmin, varphi)
    assert is_infinite(znew)
    assert abs(p - math.cos(varphi) ** 2 / 4.0) < 1e-15


def test_ideal_step_from_infinity():
    z, p = ideal_step(INFINITY, 0.7)
    assert z == 0j
    assert abs(p - 0.25) < 1e-15


def test_ideal_step_rejects_degenerate_gate():
    with pytest.raises(ValueError, match="identically zero"):
        ideal_step(0.2, math.pi / 2.0)


def test_map_coefficients_are_the_projector_coefficients_up_to_sign():
    # the ideal map's coefficients against those the step reads off the projector, both at the
    # angle ideal_coefficients reads (reduced mod 2pi)
    rng = np.random.default_rng(11)
    angles = np.concatenate([rng.uniform(0, 2 * math.pi, 60), np.arange(-8, 9) * math.pi / 4])
    checked = 0
    for varphi in angles:
        if is_degenerate(varphi):
            continue
        reduced = float(varphi) % (2.0 * math.pi)
        ours, theirs = np.array(ideal_coefficients(varphi)), np.array(step_coefficients(IDEAL, reduced))
        sign = -1.0 if np.vdot(ours, theirs).real < 0 else 1.0
        assert np.max(np.abs(theirs - sign * ours)) <= 4e-16 * np.max(np.abs(ours))
        checked += 1
    assert checked >= 50


def test_ideal_success_probability_bound_holds_at_the_poles():
    # p >= cos^2(varphi)/4 on a grid of labels that includes both poles and infinity
    axis = np.linspace(-3.0, 3.0, 61)
    grid = (axis[None, :] + 1j * axis[:, None]).ravel()
    for varphi in np.linspace(0.0, 2 * math.pi, 73):
        if is_degenerate(varphi):
            continue
        poles = 1j * cmath.exp(-1j * varphi) * np.array([1.0, -1.0])
        z = np.concatenate([grid, poles, [complex(math.inf, 0.0)]])
        _, p = quadratic_step(z, ideal_coefficients(varphi), with_p=True)
        bound = (1.0 - 1e-15) * math.cos(varphi) ** 2 / 4.0
        assert np.all(p >= bound)
        for pole in poles:
            assert ideal_step(pole, varphi)[1] >= bound


# ----------------------------------------------------------- exact operator

def test_exact_operator_dark_channel_survives():
    op = exact_step_operator(8.0)
    s = 1.0 / math.sqrt(2.0)
    psi_minus = np.array([0.0, -s, s, 0.0], dtype=complex)
    out = op @ psi_minus
    coeff = np.vdot(psi_minus, out)
    assert abs(coeff - 1.0) < 1e-12
    assert np.max(np.abs(out - coeff * psi_minus)) < 1e-12


@pytest.mark.parametrize("nbar, gt, phi", [(0.0, None, 0.0), (2.0, None, 0.0), (100.0, None, 0.0),
                                          (1400.0, None, 0.0), (10.0, 2.5, 0.3)])
def test_exact_operator_matches_the_full_state_evolution(nbar, gt, phi):
    # column j of the Bell-basis operator: evolve Bell state j with the field, then project the field on |alpha>
    t = default_interaction_time(nbar) if gt is None else gt
    p = np.append(poisson_amplitudes(nbar, phi), [0.0, 0.0])
    m_bell = np.stack([evolve_exact(e, nbar, t, phi) @ p.conj() for e in np.eye(4, dtype=complex)], axis=1)
    want = exact_step_operator(nbar, gt, phi)
    assert np.max(np.abs(BELL_TO_PRODUCT @ m_bell @ BELL_TO_PRODUCT.T - want)) < 1e-14


def test_exact_operator_exchange_symmetry():
    op = exact_step_operator(5.0, gt=2.0)
    assert exchange_symmetric_defect(op) < 1e-14


def test_exact_operator_is_a_compression():
    op = exact_step_operator(6.0, gt=3.3)
    assert np.linalg.norm(op, 2) <= 1.0 + 1e-10


def test_exact_operator_converges_to_the_projector():
    ideal = ideal_postselection_operator(0.0)
    d10 = np.max(np.abs(exact_step_operator(10.0) - ideal))
    d100 = np.max(np.abs(exact_step_operator(100.0) - ideal))
    assert d100 < d10


def test_exact_operator_keeps_converging_beyond_nbar_1400():
    # from nbar ~ 1490 the coherent amplitudes used to underflow to an all-zero operator
    ideal = ideal_postselection_operator(0.0)
    d1400 = np.linalg.norm(exact_step_operator(1400.0) - ideal, 2)
    m = exact_step_operator(1e4)
    assert np.linalg.norm(m, 2) > 0.99
    assert np.linalg.norm(m - ideal, 2) < d1400
    # the exact-to-ideal convergence table: ||M - P_ideal||_2 ~ 1/(2 sqrt(2) nbar)
    for nbar in (1e3, 1e4, 1e5):
        m = exact_step_operator(nbar)
        assert abs(nbar * np.linalg.norm(m - ideal, 2) * 2.0 * math.sqrt(2.0) - 1.0) < 1e-2


@pytest.mark.parametrize("nbar, gt, phi", [(0.0, None, 0.0), (0.5, None, 0.0), (10.0, None, 0.0),
                                          (100.0, None, 0.0), (1000.0, None, 0.0), (1400.0, None, 0.0),
                                          (1500.0, 3.0, 0.7), (2000.0, None, 0.0), (1e4, None, 0.0)])
def test_the_operator_over_the_nonzero_levels_is_the_full_range_sum(nbar, gt, phi):
    # from nbar 1500 on the leading amplitudes are exactly 0 and the window starts above level 0
    assert np.array_equal(exact_step_operator(nbar, gt, phi), full_range_step_operator(nbar, gt, phi))


@pytest.mark.parametrize("nbar", [1e5, 1e6])
def test_the_operator_over_the_nonzero_levels_at_large_nbar(nbar):
    # the window starts at 83 264 of 102 234 levels at 1e5 and at 945 984 of 1 007 044 at 1e6
    assert np.max(np.abs(exact_step_operator(nbar) - full_range_step_operator(nbar))) <= 2e-16


def test_the_operator_build_does_not_scale_with_the_cutoff():
    # the sum over all 1 007 044 levels from 0 peaked at 338 MB here, 145 MB of it the propagator table
    exact_step_operator(10.0)
    tracemalloc.start()
    try:
        exact_step_operator(1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_both_coefficient_producers_give_six_python_complex_numbers():
    for coeffs in (ideal_coefficients(0.3), step_coefficients(exact_step_operator(10.0), 0.3),
                   step_coefficients(IDEAL, 0.3)):
        assert len(coeffs) == 6 and all(type(k) is complex for k in coeffs)


def test_default_interaction_time():
    assert abs(default_interaction_time(10.0) - math.pi * math.sqrt(10.0) / 2.0) < 1e-15


# ---------------------------------------------------------------- exact step

def test_exact_step_with_the_ideal_projector_reproduces_the_ideal_step():
    # the step kernel on the rank-two projector against the postselection amplitudes
    assert np.array_equal(IDEAL, ideal_postselection_operator(0.0))
    rng = np.random.default_rng(5)
    for _ in range(50):
        varphi = rng.uniform(0, 2 * math.pi)
        if abs(math.cos(varphi)) < 1e-3:
            continue
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        want_z, want_p = amplitude_step(z, varphi)
        for got_z, got_p in (step_point(z, step_coefficients(IDEAL, varphi)), ideal_step(z, varphi)):
            if is_infinite(want_z):
                assert is_infinite(got_z) or abs(got_z) > 1e10
            else:
                assert abs(got_z - want_z) < 1e-12 * max(1.0, abs(want_z))
            assert abs(got_p - want_p) < 1e-12


def test_exact_step_single_step_accuracy_at_nbar_100():
    z, p = step_point(0.2, step_coefficients(exact_step_operator(100.0), 0.0))
    assert abs(z - apply_map(0.2, 0.0)) < 0.05
    assert 0.0 < p <= 1.0


def test_exact_step_null_outcome():
    s = 1.0 / math.sqrt(2.0)
    psi_minus = np.array([0.0, -s, s, 0.0], dtype=complex)
    only_dark = np.outer(psi_minus, psi_minus.conj())
    _, p = step_point(0j, step_coefficients(only_dark, 0.0))
    assert p < NULL_OUTCOME_EPS


def test_exact_step_rejects_degenerate_gate():
    # the exact step's coefficients are built through ideal_coefficients(varphi), the gate rule,
    # so no runner and no analysis receives the step at a degenerate angle
    op = exact_step_operator(2.0, gt=1.0)
    for varphi in (3.0 * math.pi / 2.0, math.pi / 2.0):
        with pytest.raises(ValueError, match="identically zero"):
            step_coefficients(op, varphi)


# -------------------------------------------------------------- serialization

def test_operator_csv_round_trip_is_exact(tmp_path):
    op = exact_step_operator(7.0)
    path = tmp_path / "op.csv"
    write_step_operator(op, path)
    assert np.array_equal(read_step_operator(path), op)


def test_operator_file_is_validated_where_it_enters(tmp_path):
    path = tmp_path / "op.csv"
    bad = np.zeros((4, 4), dtype=complex)
    bad[1, 2] = math.nan
    write_step_operator(bad, path)
    with pytest.raises(ValueError, match="op.csv"):
        read_step_operator(path)
    write_step_operator(2.0 * ideal_postselection_operator(0.0), path)
    with pytest.raises(ValueError, match="norm"):
        read_step_operator(path)
    asymmetric = np.zeros((4, 4), dtype=complex)
    asymmetric[1, 3] = 0.5  # |0,0> -> |1,0> without |0,0> -> |0,1>: atoms A and B differ
    write_step_operator(asymmetric, path)
    with pytest.raises(ValueError, match="exchange"):
        read_step_operator(path)
    write_step_operator(ideal_postselection_operator(0.0), path)
    assert np.array_equal(read_step_operator(path), ideal_postselection_operator(0.0))


def test_operator_csv_layout(tmp_path):
    m = np.arange(16, dtype=float).reshape(4, 4) * (1 + 0j)
    path = tmp_path / "op.csv"
    write_step_operator(m, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "0,0,1,0,2,0,3,0"
