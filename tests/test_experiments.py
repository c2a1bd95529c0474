import cmath
import functools
import math
import warnings

import numpy as np
import pytest

from oracles import (
    apply_map,
    classify_basin_point,
    fixed_point_multiplier_moduli,
    grid_points,
    homogeneous_overlap,
    product_state_vector,
    validated_cycle,
)
from tcmap import experiments as ex
from tcmap import rational_map as rm
from tcmap.experiments import (
    basin_grid,
    discrimination_run,
    grid_axes,
    overlap,
    phi_sweep,
    resource_estimate,
)
from tcmap.protocol import (
    exact_step_operator,
    gate_unitary,
    step_coefficients,
)
from tcmap.rational_map import (
    NULL_OUTCOME_EPS,
    find_attractive_cycles,
    ideal_coefficients,
    quadratic_step,
    step_point,
    success_floor,
)
from tcmap.sphere import HOMOGENEOUS_LIMIT, INFINITY


IDEAL_0 = ideal_coefficients(0.0)


def ideal_attractors(varphi):
    return [points for points, _ in find_attractive_cycles(ideal_coefficients(varphi), varphi)]


def iterate_ideal(z, varphi, n):
    for _ in range(n):
        z = apply_map(z, varphi)
    return z


# ------------------------------------------------------------------- overlap

def test_overlap_of_the_discrimination_pair():
    assert abs(overlap(-0.2, 0.2) - 0.96 / 1.04) < 1e-15


def test_overlap_of_identical_states():
    for z in (0j, 0.7 - 0.1j, INFINITY):
        assert overlap(z, z) == 1.0


def test_overlap_of_orthogonal_basis_states():
    assert overlap(0j, INFINITY) == 0.0


def test_overlap_projective_infinity_rule():
    z = 0.6 + 0.8j
    assert abs(overlap(INFINITY, z) - abs(z) / math.sqrt(1 + abs(z) ** 2)) < 1e-15


def test_overlap_of_labels_whose_square_overflows():
    # a finite label beyond HOMOGENEOUS_LIMIT is the same state as its neighbours on the sphere, not 0 or nan
    assert overlap(1e200, 0.5) == overlap(INFINITY, 0.5) == 0.5 / math.sqrt(1.25)
    assert overlap(1e200, 1e200) == overlap(1e200, -1e200j) == 1.0
    assert overlap(1e200, 0j) == 1e-200
    assert overlap(complex(1e308, 1e308), 1.0) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    got = overlap(np.array([1e200, 1e150, 2.0]), np.array([0.5, 0.5, 1e200j]))
    assert np.array_equal(got, [overlap(INFINITY, 0.5), overlap(1e150, 0.5), overlap(INFINITY, 2.0)])


@pytest.mark.parametrize("z2", [1e100, 1e100j, 1e76 - 1e76j])
def test_overlap_of_two_labels_beyond_the_chart_limit(z2):
    # both labels lie next to infinity, so the product of their norms must not overflow to an overlap of 0
    assert overlap(1e100, z2) == 1.0


# one label of each kind: zero, tiny, ordinary, near the chart limit, beyond it, infinite and nan
MIXED_LABELS = [0j, 1e-300 - 3e-310j, -0.2 + 0.03j, 1e70 - 2e69j, 3.0 * HOMOGENEOUS_LIMIT, 1e200j, INFINITY,
                complex(math.nan, 0.0)]


def test_overlap_of_each_entry_depends_on_its_labels_alone():
    # every pair of labels, in arrays that mix plane-chart and homogeneous entries
    z1, z2 = (np.array(v) for v in zip(*[(a, b) for a in MIXED_LABELS for b in MIXED_LABELS]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = overlap(z1, z2)
        alone = [overlap(a, b) for a, b in zip(z1, z2)]
        beyond = ~(np.abs(z1) <= HOMOGENEOUS_LIMIT) | ~(np.abs(z2) <= HOMOGENEOUS_LIMIT)
        want = homogeneous_overlap(z1, z2)
    assert all(type(v) is float for v in alone)
    assert np.array_equal(got, alone)
    assert np.array_equal(got[beyond], want[beyond])  # only these take the homogeneous coordinates
    assert np.array_equal(got[::-1], overlap(z1[::-1], z2[::-1]))
    assert np.max(np.abs(got - want)) < 1e-15


def test_overlap_agrees_with_the_homogeneous_oracle():
    rng = np.random.default_rng(3)
    n = 100_000
    z1, z2 = (10.0 ** rng.uniform(-8, 70, n) * np.exp(2j * math.pi * rng.random(n)) for _ in range(2))
    z2[::2] = z1[::2] * (1 + 1e-3 * (rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)))  # near pairs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = overlap(z1, z2), homogeneous_overlap(z1, z2)
    assert np.max(np.abs(got - want)) < 1e-15


def test_overlap_symmetry_and_global_phase_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        z2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert overlap(z1, z2) == overlap(z2, z1)
        # a shared rotation of both Bloch vectors around the z axis
        ph = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(overlap(z1 * ph, z2 * ph) - overlap(z1, z2)) < 1e-13


def test_orthogonalization_is_monotone_on_the_real_interval():
    rng = np.random.default_rng(1)
    for t in rng.uniform(0.05, 0.95, size=10):
        seq = []
        z1, z2 = -t, t
        for _ in range(8):
            seq.append(overlap(z1, z2))
            z1 = iterate_ideal(z1, 0.0, 1)
            z2 = iterate_ideal(z2, 0.0, 1)
        # strictly decreasing until the floats saturate at the fixed points
        for a, b in zip(seq, seq[1:]):
            assert b < a or a < 1e-12


# ----------------------------------------------------------------- phi sweep

def test_analytic_multiplier_moduli():
    l0, lp, lm = fixed_point_multiplier_moduli(0.0)
    assert (l0, lp, lm) == (2.0, 0.0, 0.0)
    l0, lp, lm = fixed_point_multiplier_moduli(math.pi / 4.0)
    assert abs(lp - 1.0) < 1e-12 and abs(l0 - math.sqrt(2.0)) < 1e-12


def ideal_maps(varphis):
    """phi_sweep's input: the ideal map at each angle."""
    return [(ideal_coefficients(v), v) for v in varphis]


def test_sweep_emits_rows_in_grid_order():
    grid = [0.0, 0.1, 0.2]
    rows = phi_sweep(ideal_maps(grid), burn=500)
    # the attracting fixed points +-1 have |multiplier| = |tan varphi|, which tells the angles apart
    assert [abs(r[0][1]) for r in rows] == pytest.approx([abs(math.tan(v)) for v in grid], abs=1e-9)
    assert fixed_point_multiplier_moduli(grid[0])[:2] == (2.0, 0.0)
    assert len(rows[0]) == 2
    assert all(len(points) == 1 and abs(m) < 1e-9 for points, m in rows[0])


def test_sweep_finds_a_four_cycle_between_the_neutral_angles():
    rows = phi_sweep(ideal_maps([1.01 * math.pi / 4.0]))
    assert any(len(points) == 4 for points, _ in rows[0])


def test_sweep_reports_match_cycle_multiplier():
    varphis = [(k + 0.5) * 2.0 * math.pi / 64 for k in range(64)]
    reports = 0
    for v, cycles in zip(varphis, phi_sweep(ideal_maps(varphis))):
        for cycle in cycles:
            assert cycle == validated_cycle(cycle[0], ideal_coefficients(v))
            reports += 1
    assert reports >= 32


def test_batched_sweep_matches_one_angle_at_a_time():
    varphis = [(k + 0.5) * 2.0 * math.pi / 64 for k in range(64)]
    rows = phi_sweep(ideal_maps(varphis), burn=1000)
    detected = 0
    for v, cycles in zip(varphis, rows):
        alone = find_attractive_cycles(ideal_coefficients(v), v, burn=1000)
        assert [len(c) for c, _ in cycles] == [len(d) for d, _ in alone]
        for (_, c), (_, d) in zip(cycles, alone):
            assert abs(abs(c) - abs(d)) < 1e-9
        detected += bool(alone)
    assert detected >= 32


# --------------------------------------------------------- discrimination MC

def test_noiseless_run_reproduces_direct_iteration():
    mean, rms, _ = discrimination_run(-0.2, 0.2, sigma=0.0, samples=3, steps=3, coeffs=IDEAL_0, seed=1)
    # oracle: direct scalar iteration and the overlap formula
    z1, z2 = -0.2, 0.2
    for k in range(4):
        assert abs(mean[k] - overlap(z1, z2)) < 1e-13
        assert rms[k] < 1e-13
        z1 = iterate_ideal(z1, 0.0, 1)
        z2 = iterate_ideal(z2, 0.0, 1)
    # frozen from exact rational iteration of 2z/(1+z^2) starting at 1/5
    expected = [0.9230769230769231, 0.7422680412371134, 0.3802259058236761, 0.07791825883762012]
    for k, e in enumerate(expected):
        assert abs(mean[k] - e) < 1e-12


def test_run_is_deterministic_for_a_fixed_seed():
    a = discrimination_run(-0.2, 0.2, sigma=0.03, samples=500, steps=5, coeffs=IDEAL_0, seed=42)
    b = discrimination_run(-0.2, 0.2, sigma=0.03, samples=500, steps=5, coeffs=IDEAL_0, seed=42)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    c = discrimination_run(-0.2, 0.2, sigma=0.03, samples=500, steps=5, coeffs=IDEAL_0, seed=43)
    assert not np.array_equal(a[0], c[0])


def test_noise_grows_then_collapses():
    mean, rms, counts = discrimination_run(-0.2, 0.2, sigma=0.03, samples=2000, steps=6, coeffs=IDEAL_0, seed=7)
    assert rms[1] > rms[0]
    assert rms[5] < rms[2]
    assert mean[6] < 0.05
    assert np.all(counts == 2000)
    assert 2000 - counts[6] == 0


def test_exact_map_decreases_faster_then_plateaus():
    coeffs = step_coefficients(exact_step_operator(10.0), 0.0)
    exact, _, _ = discrimination_run(-0.2, 0.2, sigma=0.0, samples=1, steps=7, coeffs=coeffs, seed=3)
    ideal, _, _ = discrimination_run(-0.2, 0.2, sigma=0.0, samples=1, steps=7, coeffs=IDEAL_0, seed=3)
    # faster early orthogonalization, larger late plateau
    assert exact[2] < ideal[2]
    assert exact[3] < ideal[3]
    assert exact[7] > ideal[7]
    assert exact[7] > 0.01


def test_exact_map_matches_scalar_steps():
    coeffs = step_coefficients(exact_step_operator(10.0), 0.0)
    mean, _, _ = discrimination_run(0.1 + 0.2j, 0.3, sigma=0.0, samples=1, steps=4, coeffs=coeffs, seed=5)
    z1, z2 = 0.1 + 0.2j, 0.3 + 0j
    for k in range(5):
        assert abs(mean[k] - overlap(z1, z2)) < 1e-12
        if k < 4:
            z1, _ = step_point(z1, coeffs)
            z2, _ = step_point(z2, coeffs)


def test_vectorized_exact_step_equals_the_scalar_one():
    # the kernel with exact coefficients against the explicit matrix product, point by point
    op = exact_step_operator(8.0)
    varphi = 0.4
    gate_b = np.kron(np.ones(2), np.diag(gate_unitary(varphi)))  # identity on A, gate on B
    rng = np.random.default_rng(9)
    z = np.concatenate(
        [
            rng.uniform(-0.9, 0.9, 20) + 1j * rng.uniform(-0.9, 0.9, 20),
            rng.uniform(1.5, 4.0, 20) + 1j * rng.uniform(-3.0, 3.0, 20),
            np.array([complex(np.inf, 0.0)]),
        ]
    )
    got, p = quadratic_step(z, step_coefficients(op, varphi), with_p=True)
    for zi, gi, pi in zip(z, got, p):
        u = op @ (gate_b * product_state_vector(zi))
        amp1, amp0 = u[1], u[3]  # |1,0> and |0,0>: atom B found in |0>
        want_z = amp1 / amp0
        assert abs(gi - want_z) < 1e-12 * max(1.0, abs(want_z))
        assert abs(pi - (abs(amp1) ** 2 + abs(amp0) ** 2)) < 1e-13

    # the null rule: only the dark state survives, so z = 0 has p = 0 and
    # every image is the point at infinity (its |0,0> amplitude vanishes)
    s = 1.0 / math.sqrt(2.0)
    psi_minus = np.array([0.0, -s, s, 0.0], dtype=complex)
    dark = np.outer(psi_minus, psi_minus.conj())
    got, p = quadratic_step(np.array([0j, 0.3 + 0.1j]), step_coefficients(dark, 0.0), with_p=True)
    assert p[0] < NULL_OUTCOME_EPS < p[1]
    assert not np.any(np.isfinite(got))


def test_invalid_arguments():
    for sigma, samples, steps in ((-0.1, 10, 2), (math.nan, 10, 2), (0.1, 0, 2), (0.0, 4, -1), (0.0, 4, -3)):
        with pytest.raises(ValueError):
            discrimination_run(0, 1, sigma=sigma, samples=samples, steps=steps, coeffs=IDEAL_0)
    region, attractors = (-1.0, 1.0, -1.0, 1.0), ideal_attractors(0.0)
    for tol, max_iter in ((math.nan, 97), (0.0, 97), (-0.1, 97), (0.1, -5)):
        with pytest.raises(ValueError):
            basin_grid(*grid_axes(region, 3, 3), IDEAL_0, attractors, tol=tol, max_iter=max_iter)
    # an empty or reversed extent, one that overflows a float, and one whose midpoints do
    for region in ((1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 0.0, 0.0), (-1e308, 1e308, -1.0, 1.0),
                   (-1.0, 1.0, -1e308, 1e308), (-8e307, 8e307, -1.0, 1.0)):
        with pytest.raises(ValueError, match="region"):
            grid_axes(region, 3, 3)
    # a window a few ulps wide, where neighbouring midpoints of 8 cells round to one value
    for region in ((-1e-323, 1e-323, -1.0, 1.0), (1e16, 1.0000000000000004e16, -1.0, 1.0),
                   (-1.0, 1.0, 1e16, 1.0000000000000004e16)):
        with pytest.raises(ValueError, match="region is too narrow"):
            grid_axes(region, 8, 8)


def test_a_tol_that_lets_two_attractors_claim_one_cell_is_refused():
    # at 0.2375pi, 40x40, --tol 1.5 gave 945 and 655 cells to the attractors +-1 where the map's oddness
    # forces 800 each: a cell within tol of both went to the one listed first
    axes, coeffs = grid_axes((-2.0, 2.0, -2.0, 2.0), 4, 4), ideal_coefficients(0.2375 * math.pi)
    for tol in (1.0, 1.5, 3.0):
        with pytest.raises(ValueError, match=r"^tol .* half the distance 2 between the attractor points 1\+0j and -1\+"):
            basin_grid(*axes, coeffs, [[1.0], [-1.0]], tol=tol)
    basin_grid(*axes, coeffs, [[1.0], [-1.0]], tol=0.999)
    # the nearest pair of points of the two cycles sets the limit; points of one cycle may overlap
    cycles = [[1.0, 0.5], [-1.0, 0.0]]
    with pytest.raises(ValueError, match=r"half the distance 0.5 between the attractor points 0.5\+0j and 0\+0j"):
        basin_grid(*axes, coeffs, cycles, tol=0.25)
    basin_grid(*axes, coeffs, cycles, tol=0.2499)
    basin_grid(*axes, coeffs, [[1.0, 0.5]], tol=3.0)


# ------------------------------------------------------------------ resources

def test_resource_formula_values():
    assert resource_estimate(3, 0.0) == 512
    assert resource_estimate(0, 1.23) == 1
    assert resource_estimate(2, math.pi / 4.0) == 256
    for varphi in (0.0, 0.49 * math.pi):
        with pytest.raises(ValueError, match=r"n=400, varphi="):
            resource_estimate(400, varphi)


def test_resource_powers_of_eight_are_exact():
    for n in range(11):
        assert resource_estimate(n, 0.0) == 8**n


def test_resource_rejects_degenerate_angle():
    with pytest.raises(ValueError, match="identically zero"):
        resource_estimate(2, math.pi / 2.0)


# ----------------------------------------------------------------- basin grid

def test_grid_points_layout():
    pts = grid_points((-2.0, 2.0, -2.0, 2.0), 5, 5)
    assert pts.shape == (5, 5)
    assert pts[0, 0] == complex(-1.6, 1.6)   # top-left
    assert pts[2, 2] == 0j                   # exact center
    assert pts[4, 4] == complex(1.6, -1.6)   # bottom-right


def test_basin_halves_at_phi_zero():
    attractors = ideal_attractors(0.0)
    grid = basin_grid(*grid_axes((-2.0, 2.0, -2.0, 2.0), 5, 5), IDEAL_0, attractors)
    # discovery order: the + critical orbit lands on +1 first
    assert abs(attractors[0][0] - 1.0) < 1e-12
    assert abs(attractors[1][0] + 1.0) < 1e-12
    ids = grid.attractor_ids
    assert np.all(ids[:, 3:] == 0)      # right half converges to +1
    assert np.all(ids[:, :2] == 1)      # left half converges to -1
    assert np.all(ids[:, 2] == -1)      # the imaginary axis never resolves
    assert np.all(grid.iterations[:, 2] == 97)  # basin_grid's default max_iter


def test_basin_grid_agrees_with_scalar_classification():
    varphi, region, width, height = 0.95 * math.pi / 4.0, (-1.5, 1.5, -1.0, 1.0), 7, 5
    cycles = [points for points, _ in find_attractive_cycles(ideal_coefficients(varphi), varphi)]
    grid = basin_grid(*grid_axes(region, width, height), ideal_coefficients(varphi), cycles)
    pts = grid_points(region, width, height)
    for i in range(height):
        for j in range(width):
            cell = classify_basin_point(pts[i, j], varphi, cycles, tol=0.1, max_iter=97)
            want = -1 if cell.attractor_id is None else cell.attractor_id
            assert grid.attractor_ids[i, j] == want
            assert grid.iterations[i, j] == cell.iterations


def test_basin_grid_reads_every_attractor_form():
    # an attractor is any sequence of its cycle's points
    region, cycles = (-2.0, 2.0, -2.0, 2.0), ideal_attractors(0.0)
    want = basin_grid(*grid_axes(region, 6, 6), IDEAL_0, cycles)
    for attractors in ([[1.0], (-1.0,)], [np.array([1.0]), cycles[1]], np.array([[1.0], [-1.0]])):
        got = basin_grid(*grid_axes(region, 6, 6), IDEAL_0, attractors)
        assert ex._attractor_cycles(attractors) == ((1.0 + 0j,), (-1.0 + 0j,))
        assert np.array_equal(got.attractor_ids, want.attractor_ids)
        assert np.array_equal(got.iterations, want.iterations)
    for attractors, message in (([[1.0], [INFINITY]], "finite"), ([], "empty"), ([[1.0], []], "empty"),
                                ([[1.0], [-1.0], [0.0]], "at most two")):
        with pytest.raises(ValueError, match=message):
            basin_grid(*grid_axes(region, 6, 6), IDEAL_0, attractors)


def test_basin_symmetries_at_phi_zero():
    grid = basin_grid(*grid_axes((-2.0, 2.0, -2.0, 2.0), 8, 8), IDEAL_0, ideal_attractors(0.0))
    ids = grid.attractor_ids
    its = grid.iterations
    # z -> -z swaps the attractors, z -> conj(z) preserves them
    flipped = ids[::-1, ::-1]
    swap = np.where(flipped >= 0, 1 - flipped, flipped)
    assert np.array_equal(ids, swap)
    assert np.array_equal(its, its[::-1, ::-1])
    assert np.array_equal(ids, ids[::-1, :])
    assert np.array_equal(its, its[::-1, :])


def test_exact_basin_approaches_the_ideal_with_photon_number():
    varphi = 0.95 * math.pi / 4.0
    region = (-1.5, 1.5, -1.5, 1.5)
    cycles = ideal_attractors(varphi)
    ideal = basin_grid(*grid_axes(region, 9, 9), ideal_coefficients(varphi), cycles)
    agree = {}
    for nbar in (10.0, 100.0):
        ex = basin_grid(*grid_axes(region, 9, 9), step_coefficients(exact_step_operator(nbar), varphi), cycles)
        agree[nbar] = float(np.mean(ex.attractor_ids == ideal.attractor_ids))
    assert agree[100.0] >= agree[10.0]
    assert agree[100.0] > 0.8


def _dark_state_only():
    # only |Psi-> passes, so p = |b z|^2 / (1 + |z|^2)^2: null at 0 at once, elsewhere one step later
    s = 1.0 / math.sqrt(2.0)
    psi_minus = np.array([0.0, -s, s, 0.0], dtype=complex)
    return np.outer(psi_minus, psi_minus.conj())


def _null_at_zero_then_one(varphi):
    # z -> (z^2 + z) / z^2: null at 0, whose image 0/0 is infinity, and infinity maps to a/d = 1,
    # so a cell that went on after its null would reach the attractor +1
    g = np.tile(np.diag(gate_unitary(varphi)), 2)
    m = np.zeros((4, 4), dtype=complex)
    m[1, :2] = 1.0 / g[:2]
    m[3, 0] = 1.0 / g[0]
    return m


@pytest.mark.parametrize("operator", ["dark", "shared-root"])
def test_compacted_basin_loop_keeps_the_null_rule(operator):
    varphi, region, attractors, max_iter = 0.2375 * math.pi, (-1.25, 1.25, -1.25, 1.25), [[1.0], [-1.0]], 97
    matrix = _dark_state_only() if operator == "dark" else _null_at_zero_then_one(varphi)
    coeffs = step_coefficients(matrix, varphi)
    grid = basin_grid(*grid_axes(region, 5, 5), coeffs, attractors, max_iter=max_iter)
    pts = grid_points(region, 5, 5)
    assert pts[2, 2] == 0j
    assert (grid.attractor_ids[2, 2], grid.iterations[2, 2]) == (-1, max_iter)
    assert (grid.attractor_ids[2, 0], grid.attractor_ids[2, 4]) == (1, 0)

    for (i, j), z in np.ndenumerate(pts):
        want = (-1, max_iter)
        for k in range(max_iter):
            hit = [idx for idx, (p,) in enumerate(attractors) if abs(z - p) < 0.1]
            if hit:
                want = (hit[0], k)
                break
            w, p_succ = quadratic_step(np.array([z]), coeffs, with_p=True)
            if p_succ[0] < NULL_OUTCOME_EPS:
                break
            z = complex(w[0])
        assert (grid.attractor_ids[i, j], grid.iterations[i, j]) == want


def test_success_floor_separates_the_steps_that_can_null():
    # the runners compute p, and drop nulled points, only below twice the null threshold
    for matrix in (_dark_state_only(), _null_at_zero_then_one(0.2375 * math.pi)):
        assert success_floor(step_coefficients(matrix, 0.2375 * math.pi)) < 2e-14
    for nbar in (2.0, 10.0, 100.0, 1400.0):
        op = exact_step_operator(nbar)
        for varphi in (0.0, 0.2375 * math.pi, 1.666 * math.pi):
            assert success_floor(step_coefficients(op, varphi)) > 1e-2


def test_the_ideal_step_nulls_where_its_floor_does():
    # cos^2 varphi / 4 < 2e-14: a label on a pole has p = 2.5e-19, a null outcome, not a step to infinity
    varphi = math.acos(1e-9)
    coeffs = ideal_coefficients(varphi)
    pole = 1j * cmath.exp(-1j * varphi)
    assert step_point(pole, coeffs)[1] < 1e-18
    _, _, counts = discrimination_run(pole, 0.5, sigma=0.0, samples=1, steps=3, coeffs=coeffs)
    assert counts.tolist() == [1, 0, 0, 0]
    assert 1 - counts[3] == 1
    window = (pole.real - 1e-3, pole.real + 1e-3, pole.imag - 1e-3, pole.imag + 1e-3)
    grid = basin_grid(*grid_axes(window, 1, 1), coeffs, [[0.0]], tol=1e-6, max_iter=5)
    assert (grid.attractor_ids[0, 0], grid.iterations[0, 0]) == (-1, 5)


# ------------------------------------------------------------- blocked runs

def _whole_array_discrimination(z1, z2, sigma, samples, steps, coeffs, seed):
    # the one-pass loop over every sample that discrimination_run blocks; it always computes p
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(4, samples)) if sigma > 0 else np.zeros((4, samples))
    za = complex(z1) + noise[0] + 1j * noise[1]
    zb = complex(z2) + noise[2] + 1j * noise[3]
    mean, rms = np.zeros(steps + 1), np.zeros(steps + 1)
    counts = np.zeros(steps + 1, dtype=np.int64)
    alive = np.ones(samples, dtype=bool)
    failures = 0
    for k in range(steps + 1):
        ov = overlap(za, zb)[alive]
        counts[k] = ov.size
        if ov.size:
            mean[k] = float(np.mean(ov))
            rms[k] = float(np.sqrt(np.mean((ov - mean[k]) ** 2)))
        if k == steps:
            break
        za, pa = quadratic_step(za, coeffs, with_p=True)
        zb, pb = quadratic_step(zb, coeffs, with_p=True)
        died = alive & ((pa < NULL_OUTCOME_EPS) | (pb < NULL_OUTCOME_EPS))
        failures += int(np.count_nonzero(died))
        alive &= ~died
    return mean, rms, counts, failures


def _whole_array_basin(region, width, height, coeffs, cycle_points, tol=0.1, max_iter=97):
    # the compacted open-cell loop over the whole grid that basin_grid blocks; it always computes p
    z = grid_points(region, width, height).ravel()
    ids = np.full(z.size, -1, dtype=np.int64)
    iters = np.full(z.size, max_iter, dtype=np.int64)
    cells = np.arange(z.size)
    for k in range(max_iter):
        if not cells.size:
            break
        keep = np.ones(cells.size, dtype=bool)
        for idx, cyc in enumerate(cycle_points):
            hit = keep & np.any([np.abs(z - p) < tol for p in cyc], axis=0)
            ids[cells[hit]] = idx
            iters[cells[hit]] = k
            keep &= ~hit
        z, cells = z[keep], cells[keep]
        z, p_succ = quadratic_step(z, coeffs, with_p=True)
        alive = p_succ >= NULL_OUTCOME_EPS
        z, cells = z[alive], cells[alive]
    return ids.reshape(height, width), iters.reshape(height, width)


@pytest.fixture(scope="module")
def block_operators():
    # the step coefficients of each operator at a gate angle
    ops = {"nbar10": exact_step_operator(10.0), "dark": _dark_state_only()}
    ops = {name: functools.partial(step_coefficients, op) for name, op in ops.items()}
    return dict(ops, ideal=ideal_coefficients)


DISCRIMINATION_CASES = [
    # (operator, z1, z2, sigma, steps)
    ("ideal", -0.2, 0.2, 0.03, 7),
    ("ideal", -0.2, 0.2, 0.0, 8),
    ("ideal", 0.1 + 0.3j, -0.4, 0.2, 19),
    ("nbar10", -0.2, 0.2, 0.05, 19),
    ("nbar10", 0.3, -0.2j, 0.0, 0),
    ("ideal", 0.1 + 0.3j, -0.4, 0.2, 0),  # the seeded start labels alone
    ("ideal", 0j, 0j, 3e74, 2),  # a few labels beyond HOMOGENEOUS_LIMIT, in some blocks only
    ("nbar10", 0.2, INFINITY, 0.03, 1),  # every z2 label at infinity
    ("dark", 0.3, -0.2j, 0.1, 2),  # every sample is nulled at the last step
    ("dark", -0.2, 0.2, 0.3, 9),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blocked_discrimination_matches_the_whole_array_loop(monkeypatch, block_operators, workers):
    monkeypatch.setattr(ex, "BLOCK", 64)
    monkeypatch.setattr(ex, "WORKERS", workers)
    samples, varphi, seed = 1000, 0.1, 11  # 15 full blocks and a ragged one of 40
    for name, z1, z2, sigma, steps in DISCRIMINATION_CASES:
        coeffs = block_operators[name](varphi)
        got_mean, got_rms, got_counts = discrimination_run(z1, z2, sigma, samples, steps, coeffs, seed=seed)
        mean, rms, counts, failures = _whole_array_discrimination(z1, z2, sigma, samples, steps, coeffs, seed)
        assert np.array_equal(got_mean, mean), name
        assert np.array_equal(got_rms, rms), name
        assert np.array_equal(got_counts, counts), name
        assert samples - got_counts[steps] == failures, name
    assert failures > 0  # the dark-state run nulls samples


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blocked_basin_matches_the_whole_array_loop(monkeypatch, block_operators, workers):
    monkeypatch.setattr(ex, "BLOCK", 100)
    monkeypatch.setattr(ex, "WORKERS", workers)
    region, width, height = (-1.7, 1.9, -1.3, 1.6), 37, 29  # 10 full blocks and a ragged one of 73
    for name, varphi in [("ideal", 0.2375 * math.pi), ("ideal", 0.251953125 * math.pi),
                         ("nbar10", 0.2375 * math.pi), ("dark", 0.2375 * math.pi)]:
        coeffs = block_operators[name](varphi)
        cycles = tuple(points for points, _ in find_attractive_cycles(ideal_coefficients(varphi), varphi))
        grid = basin_grid(*grid_axes(region, width, height), coeffs, cycles)
        ids, iters = _whole_array_basin(region, width, height, coeffs, cycles)
        assert ex._attractor_cycles(cycles) == cycles
        assert np.array_equal(grid.attractor_ids, ids), name
        assert np.array_equal(grid.iterations, iters), name
    assert np.any(ids == -1)  # the dark-state grid leaves cells unresolved


class _BlockFailure(RuntimeError):
    pass


def _fail_on(monkeypatch, marker):
    # quadratic_step that raises on the one call whose input starts with marker
    step = rm.quadratic_step

    def failing(z, coeffs, with_p=False):
        z = np.asarray(z)
        if z.size and z.flat[0] == marker:
            raise _BlockFailure(marker)
        return step(z, coeffs, with_p)

    monkeypatch.setattr(rm, "quadratic_step", failing)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_a_failing_block_fails_the_discrimination_run(monkeypatch, block_operators, workers, exact):
    monkeypatch.setattr(ex, "BLOCK", 64)
    monkeypatch.setattr(ex, "WORKERS", workers)
    samples, sigma, seed = 300, 0.03, 5
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=(4, samples))
    _fail_on(monkeypatch, -0.2 + noise[0, 64] + 1j * noise[1, 64])  # z1 of the second block's first sample
    with pytest.raises(_BlockFailure):
        discrimination_run(-0.2, 0.2, sigma, samples, 9, block_operators["nbar10" if exact else "ideal"](0.0),
                           seed=seed)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("exact", [False, True])
def test_a_failing_block_fails_the_basin_grid(monkeypatch, block_operators, workers, exact):
    monkeypatch.setattr(ex, "BLOCK", 100)
    monkeypatch.setattr(ex, "WORKERS", workers)
    region, width, height = (-2.0, 2.0, -2.0, 2.0), 20, 15
    _fail_on(monkeypatch, grid_points(region, width, height).ravel()[100])  # the second block's first cell
    with pytest.raises(_BlockFailure):
        # no cell starts within tol of an attractor, so the second block's first step holds every cell
        varphi = 0.2375 * math.pi
        basin_grid(*grid_axes(region, width, height), block_operators["nbar10" if exact else "ideal"](varphi),
                   ideal_attractors(varphi), tol=1e-9)
