import cmath
import math

import numpy as np
import pytest

from oracles import BasinCell, apply_map, classify_basin_point, fixed_points, iterate_map, validated_cycle
from tcmap import rational_map
from tcmap.rational_map import (
    apply_map_grid,
    attractive_cycle_batch,
    classify_multiplier,
    escape_guard_grid,
    find_attractive_cycles,
    ideal_coefficients,
    inverse_branches,
    is_degenerate,
    julia_backward_sample,
    map_derivative,
    quadratic_step,
    step_point,
    success_floor,
    two_cycle,
)
from tcmap.protocol import exact_step_operator, step_coefficients
from tcmap.sphere import INFINITY, chordal_distance, is_infinite


def random_angles(rng, n):
    """Gate angles uniform in [0, 2pi) staying clear of the degenerate pair."""
    out = []
    while len(out) < n:
        v = rng.uniform(0.0, 2.0 * math.pi)
        if abs(math.cos(v)) > 1e-3:
            out.append(v)
    return out


def finite_difference_derivative(z, varphi, h=1e-6):
    # complex-analytic central difference along the real direction
    return (apply_map(z + h, varphi) - apply_map(z - h, varphi)) / (2.0 * h)


# ---------------------------------------------------------------- apply_map

def test_apply_map_fixed_point_one():
    assert abs(apply_map(1.0, 0.3) - 1.0) < 1e-15


def test_apply_map_origin():
    assert apply_map(0j, 1.0) == 0j


def test_apply_map_first_step_of_the_chain():
    z = apply_map(0.2, 0.0)
    assert abs(z - 0.3846153846153846) < 1e-15


def test_apply_map_pole_goes_to_infinity():
    assert apply_map(1j, 0.0) is INFINITY


def test_apply_map_infinity_goes_to_zero():
    assert apply_map(INFINITY, 0.3) == 0j


def test_apply_map_huge_argument_no_nan():
    for z in (1e200 + 0j, 1e300 - 2e299j, -5e120j):
        w = apply_map(z, 0.7)
        assert not is_infinite(w)
        assert abs(w) < 1e-100


def test_apply_map_degenerate_angle_rejected():
    with pytest.raises(ValueError, match="identically zero"):
        apply_map(0.5, math.pi / 2)


@pytest.mark.parametrize("angle", [math.pi / 2, 3 * math.pi / 2, -math.pi / 2, 5 * math.pi / 2])
@pytest.mark.parametrize("offset", [0.0, 1e-13, -1e-13, 5e-14])
def test_map_params_rejects_a_degenerate_angle_on_construction(angle, offset):
    assert is_degenerate(angle + offset)
    with pytest.raises(ValueError, match="identically zero"):
        ideal_coefficients(angle + offset)


def test_map_params_accepts_angles_off_the_degenerate_pair():
    for v in (0.0, math.pi, math.pi / 2 + 1e-9, 3 * math.pi / 2 - 1e-9, 1e6):
        assert not is_degenerate(v)
        assert ideal_coefficients(v)[1] == math.cos(v % (2 * math.pi))


def test_fixed_point_identity_for_random_angles():
    rng = np.random.default_rng(7)
    for v in random_angles(rng, 100):
        for j in (-1.0, 0.0, 1.0):
            assert abs(apply_map(j, v) - j) < 1e-12


def test_imaginary_axis_invariant_at_phi_zero():
    rng = np.random.default_rng(3)
    for y in rng.uniform(-5.0, 5.0, size=50):
        w = apply_map(1j * y, 0.0)
        if not is_infinite(w):
            assert w.real == 0.0  # exact, not approximate


# ---------------------------------------------------------- map_derivative

def test_derivative_at_origin():
    assert abs(map_derivative(0j, ideal_coefficients(0.0)) - 2.0) < 1e-15


def test_derivative_vanishes_at_critical_fixed_point():
    assert abs(map_derivative(1.0, ideal_coefficients(0.0))) < 1e-15


def test_derivative_at_one_for_pi_over_eight():
    expected = -1j * math.tan(math.pi / 8.0)
    assert abs(map_derivative(1.0, ideal_coefficients(math.pi / 8.0)) - expected) < 1e-14


def test_derivative_raises_at_pole():
    with pytest.raises(ValueError, match=r"derivative requested at a pole, z=1j"):
        map_derivative(1j, ideal_coefficients(0.0))


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        v = random_angles(rng, 1)[0]
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        den = cmath.exp(-1j * v) + z * z * cmath.exp(1j * v)
        if abs(den) < 1e-2:
            continue
        exact = map_derivative(z, ideal_coefficients(v))
        approx = finite_difference_derivative(z, v)
        assert abs(exact - approx) <= 1e-5 * max(1.0, abs(exact))
        checked += 1


# ------------------------------------------------------------- iterate_map

def test_iterate_map_three_steps_from_the_discrimination_start():
    orbit = iterate_map(0.2, 0.0, 3)
    expected = [0.2, 0.3846153846153846, 0.6701030927835051, 0.9248936482323602]
    assert len(orbit) == 4
    for z, e in zip(orbit, expected):
        assert abs(z - e) < 1e-12


def test_iterate_map_fixed_point_stays_put():
    orbit = iterate_map(1.0, 0.7, 5)
    assert all(abs(z - 1.0) < 1e-12 for z in orbit)


def test_iterate_map_through_infinity():
    orbit = iterate_map(INFINITY, 0.3, 2)
    assert orbit[0] is INFINITY
    assert orbit[1] == 0j and orbit[2] == 0j


def test_iterate_map_rejects_negative_count():
    with pytest.raises(ValueError):
        iterate_map(0.1, 0.3, -1)


# ---------------------------------------------------- fixed points, cycles

def test_fixed_points_independent_of_angle():
    for v in (0.0, 1.2, 1.666 * math.pi):
        assert fixed_points(v) == (-1.0 + 0j, 0j, 1.0 + 0j)


def test_two_cycle_at_phi_zero():
    a, b = two_cycle(0.0)
    assert abs(a - 1j * math.sqrt(3.0)) < 1e-14
    assert abs(b + 1j * math.sqrt(3.0)) < 1e-14


def test_two_cycle_swaps_under_the_map():
    for v in (0.0, math.pi / 4.0, 2.3):
        a, b = two_cycle(v)
        assert abs(apply_map(a, v) - b) < 1e-10
        assert abs(apply_map(b, v) - a) < 1e-10


def test_two_cycle_is_repelling_for_any_angle():
    rng = np.random.default_rng(5)
    for v in random_angles(rng, 20) + [0.95 * math.pi / 4.0]:
        _, m = validated_cycle(two_cycle(v), ideal_coefficients(v))
        assert classify_multiplier(m) == "repelling"
        # |lambda| = 3 + 1/cos^2 analytically
        assert abs(abs(m) - (3.0 + 1.0 / math.cos(v) ** 2)) < 1e-8


def test_cycle_multiplier_fixed_point_zero():
    points, m = validated_cycle([0j], ideal_coefficients(0.0))
    assert abs(m - 2.0) < 1e-14
    assert classify_multiplier(m) == "repelling"
    assert len(points) == 1


def test_cycle_multiplier_superattractive_one():
    _, m = validated_cycle([1.0 + 0j], ideal_coefficients(0.0))
    assert abs(m) < 1e-15
    assert classify_multiplier(m) == "superattractive"


def test_cycle_multiplier_two_cycle_value():
    _, m = validated_cycle([1j * math.sqrt(3.0), -1j * math.sqrt(3.0)], ideal_coefficients(0.0))
    assert abs(m - 4.0) < 1e-12


def test_cycle_multiplier_rejects_non_cycle():
    with pytest.raises(ValueError, match="points do not close under the map at index 0"):
        validated_cycle([0.3 + 0j], ideal_coefficients(0.0))


def test_classify_multiplier_bands():
    assert classify_multiplier(0.0) == "superattractive"
    assert classify_multiplier(0.5) == "attractive"
    assert classify_multiplier(1.0) == "neutral"
    assert classify_multiplier(1.0 + 5e-10) == "neutral"
    assert classify_multiplier(1.1) == "repelling"


def critical_points(coeffs, varphi):
    """The critical points as attractive_cycle_batch starts its orbits: the one nearer e^{-i varphi} first."""
    roots = rational_map._critical_roots(tuple(complex(k) for k in coeffs))
    return roots[::-1] if rational_map._second_nearer(np.array([roots]), [varphi])[0] else roots


def ideal_critical_points(v):
    return critical_points(ideal_coefficients(v), v)


def test_critical_points_values_and_modulus():
    assert ideal_critical_points(0.0) == (1.0 + 0j, -1.0 + 0j)
    a, b = ideal_critical_points(math.pi / 3.0)
    assert abs(a - cmath.exp(-1j * math.pi / 3.0)) < 1e-15
    for v in (0.1, 2.0, 5.5):
        for c in ideal_critical_points(v):
            assert abs(abs(c) - 1.0) < 1e-15
            assert abs(map_derivative(c, ideal_coefficients(v))) < 1e-13
    # the root nearer e^{-i varphi} comes first, in all four quadrants and at negative angles
    for v in (0.3, 1.2, 2.0, 2.9, 3.5, 4.4, 5.0, 6.1, -0.7, -2.5):
        plus, minus = ideal_critical_points(v)
        assert abs(plus - cmath.exp(-1j * v)) < 1e-15
        assert abs(minus + cmath.exp(-1j * v)) < 1e-15


# --------------------------------------------------- find_attractive_cycles

def test_critical_orbits_find_both_superattractive_fixed_points():
    cycles = find_attractive_cycles(ideal_coefficients(0.0), 0.0)
    assert len(cycles) == 2
    points = sorted(pts[0].real for pts, _ in cycles)
    assert abs(points[0] + 1.0) < 1e-12 and abs(points[1] - 1.0) < 1e-12
    assert all(classify_multiplier(m) == "superattractive" for _, m in cycles)


def test_critical_orbits_merge_on_single_attractor():
    cycles = find_attractive_cycles(ideal_coefficients(1.666 * math.pi), 1.666 * math.pi)
    assert len(cycles) == 1
    (points, m), = cycles
    assert len(points) == 1
    assert abs(points[0]) < 1e-8
    assert classify_multiplier(m) == "attractive"


def test_four_cycles_between_the_neutral_angles():
    # just above pi/4 two distinct attractive 4-cycles coexist
    cycles = find_attractive_cycles(ideal_coefficients(1.01 * math.pi / 4.0), 1.01 * math.pi / 4.0)
    assert len(cycles) == 2
    assert all(len(points) == 4 for points, _ in cycles)
    assert all(classify_multiplier(m) == "attractive" for _, m in cycles)
    d = min(
        chordal_distance(p, q) for p in cycles[0][0] for q in cycles[1][0]
    )
    assert d > 1e-3  # genuinely different orbits (they are mirror images)


def test_the_search_finds_only_closed_cycles():
    # with a near-return tolerance of 0.8 the search reported two points of these 4-cycles as
    # attracting fixed points with |multiplier| 0.245
    varphi = 0.251953125 * math.pi
    coeffs = ideal_coefficients(varphi)
    cycles = find_attractive_cycles(coeffs, varphi)
    assert [len(points) for points, _ in cycles] == [4, 4]
    for points, m in cycles:
        assert validated_cycle(points, coeffs) == (points, m)


def test_the_image_of_infinity_is_numpys_quotient():
    # Python's complex division rounds the imaginary part of this quotient one ulp higher
    a, d = -0.45264929211044586 - 0.2155971630897659j, -2.019986129147251 - 0.23193237764418947j
    assert a / d != np.divide(a, d)
    coeffs = (a, 1j, 0j, d, 0j, 1 + 0j)
    w = quadratic_step(np.array([INFINITY, 1e13, -2e12j]), coeffs)
    assert w.tolist() == [complex(np.divide(a, d))] * 3


def test_cycle_search_rejects_a_negative_burn():
    with pytest.raises(ValueError):
        find_attractive_cycles(ideal_coefficients(0.3), 0.3, burn=-1)


def full_burn_cycles(step_coeffs, varphi, burn, max_period=64, tol=1e-8):
    """The critical-orbit search on one map with every one of the `burn` steps taken."""
    z = np.array(critical_points(step_coeffs, varphi))
    coeffs = tuple(np.array([k, k]) for k in step_coeffs)  # one coefficient per orbit, as in a batch
    for _ in range(burn):
        z = quadratic_step(z, coeffs)
    orbit = [z]
    for _ in range(max_period):
        orbit.append(quadratic_step(orbit[-1], coeffs))
    orbit = np.array(orbit)
    found = []
    for j in range(2):
        close = chordal_distance(orbit[1:, j], orbit[0, j]) < tol
        if not close.any():
            continue
        try:
            points, m = validated_cycle(orbit[: close.argmax() + 1, j], step_coeffs, tol)
        except ValueError:
            continue
        new = all(len(points) != len(f) or min(chordal_distance(points[0], q) for q in f) >= 1e-6
                  for f, _ in found)
        if classify_multiplier(m) in ("attractive", "superattractive") and new:
            found.append((points, m))
    return found


@pytest.fixture
def step_inputs(monkeypatch):
    """A copy of the array each call of the step body receives, in call order."""
    inputs = []
    step_body = rational_map._step_body

    def recorded(z, coeffs, inf_image, with_p=False):
        inputs.append(z.copy())
        return step_body(z, coeffs, inf_image, with_p)

    monkeypatch.setattr(rational_map, "_step_body", recorded)
    return inputs


@pytest.mark.parametrize("varphi, settles", [
    (0.2375 * math.pi, True), (1.01 * math.pi / 4.0, True), (0.45 * math.pi, True),
    (0.1 * math.pi, False),  # the orbit drifts by ulps and never repeats exactly
    (0.3 * math.pi, False),  # chaotic
])
def test_early_stopped_burn_equals_the_full_burn(step_inputs, varphi, settles):
    coeffs = ideal_coefficients(varphi)
    for burn in (0, 1, 777, 10_000):
        step_inputs.clear()
        got = attractive_cycle_batch([(coeffs, varphi)], burn=burn)[0]
        batch_steps = len(step_inputs)  # full_burn_cycles steps through the same body
        want = full_burn_cycles(coeffs, varphi, burn)
        assert [points for points, _ in got] == [points for points, _ in want]
        assert [m for _, m in got] == [m for _, m in want]
        if burn == 10_000:
            assert (batch_steps < 2000) == settles
    if settles:
        assert want


def test_settled_orbits_leave_the_burn(step_inputs):
    maps = [(ideal_coefficients(v), v) for v in (0.2375 * math.pi, 0.3 * math.pi)]
    attractive_cycle_batch(maps)
    burned = sum(z.size for z in step_inputs[:-64])  # the last max_period steps trace the orbits after the burn
    # the chaotic pair runs the whole burn; the settled pair leaves at the check where it repeats alone
    assert 2 * 10_000 <= burned <= 2 * 10_000 + 2 * 512


def test_never_more_than_two_attractive_cycles():
    rng = np.random.default_rng(17)
    for v in random_angles(rng, 15):
        assert len(find_attractive_cycles(ideal_coefficients(v), v, burn=2000)) <= 2


def test_cycle_reports_close_under_the_map():
    for v in (0.0, 1.01 * math.pi / 4.0, 1.666 * math.pi):
        for points, _ in find_attractive_cycles(ideal_coefficients(v), v):
            for i, p in enumerate(points):
                nxt = apply_map(p, v)
                assert chordal_distance(nxt, points[(i + 1) % len(points)]) < 1e-7


# --------------------------------------------------------- inverse branches

def test_inverse_of_critical_value_is_a_double_root():
    a, b = inverse_branches(1.0, ideal_coefficients(0.0))
    assert abs(a - 1.0) < 1e-12 and abs(b - 1.0) < 1e-12


def test_inverse_of_zero():
    a, b = inverse_branches(0j, ideal_coefficients(0.5))
    assert a == 0j and b is INFINITY


def test_inverse_of_infinity_is_the_poles():
    a, b = inverse_branches(INFINITY, ideal_coefficients(0.4))
    for p in (a, b):
        assert apply_map(p, 0.4) is INFINITY


def test_inverse_recovers_the_forward_image():
    branches = inverse_branches(0.3846153846153846, ideal_coefficients(0.0))
    assert min(abs(z - 0.2) for z in branches if not is_infinite(z)) < 1e-12


def test_inverse_correctness_on_random_points():
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = random_angles(rng, 1)[0]
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for z in inverse_branches(w, ideal_coefficients(v)):
            assert chordal_distance(apply_map(z, v), w) < 1e-9


# ----------------------------------------------------------- Julia sampling

def test_julia_sample_is_deterministic():
    varphi = 1.666 * math.pi
    a = julia_backward_sample(varphi, 500, seed=99)
    b = julia_backward_sample(varphi, 500, seed=99)
    assert np.array_equal(a, b)
    c = julia_backward_sample(varphi, 500, seed=100)
    assert not np.array_equal(a, c)


def test_julia_sample_on_the_imaginary_axis_at_phi_zero():
    pts = julia_backward_sample(0.0, 1000, seed=4)
    assert np.max(np.abs(pts.real)) < 1e-6


def test_julia_sample_avoids_the_attractors():
    for v in (1.666 * math.pi, 0.95 * math.pi / 4.0):
        cycles = find_attractive_cycles(ideal_coefficients(v), v)
        attr = [p for points, _ in cycles for p in points]
        pts = julia_backward_sample(v, 300, seed=12)
        for z in pts:
            orbit = iterate_map(complex(z), v, 5)
            for w in orbit:
                if not is_infinite(w):
                    assert all(abs(w - a) >= 0.1 for a in attr)


# ------------------------------------------------------ basin classification

def test_classify_basin_point_reaches_plus_one_in_three_steps():
    cell = classify_basin_point(0.2, 0.0, [1.0 + 0j, -1.0 + 0j], tol=0.1)
    assert cell == BasinCell(attractor_id=0, iterations=3)


def test_classify_basin_point_immediate_hit():
    cell = classify_basin_point(1.0, 0.0, [1.0 + 0j, -1.0 + 0j], tol=0.1)
    assert cell == BasinCell(attractor_id=0, iterations=0)


def test_classify_basin_point_julia_start_is_unresolved():
    cell = classify_basin_point(0.05j, 0.0, [1.0 + 0j, -1.0 + 0j], tol=0.1, max_iter=97)
    assert cell.attractor_id is None
    assert cell.iterations == 97


def test_classify_basin_point_accepts_cycle_reports():
    cycles = find_attractive_cycles(ideal_coefficients(0.0), 0.0)
    cell = classify_basin_point(0.2, 0.0, [points for points, _ in cycles], tol=0.1)
    target = cycles[cell.attractor_id][0][0]
    assert abs(target - 1.0) < 1e-12


# --------------------------------------------------------- vectorized kernel

def test_grid_kernel_matches_scalar_map():
    rng = np.random.default_rng(31)
    for v in random_angles(rng, 5):
        z = rng.uniform(-3, 3, size=64) + 1j * rng.uniform(-3, 3, size=64)
        out = apply_map_grid(z, v)
        for zi, oi in zip(z, out):
            expected = apply_map(complex(zi), v)
            if is_infinite(expected):
                assert not np.isfinite(oi)
            else:
                assert abs(oi - expected) < 1e-13


def test_grid_kernel_special_points():
    z = np.array([complex(np.inf, 0.0), 1j, 1e300 + 0j, 0j])
    out = apply_map_grid(z, 0.0)
    assert out[0] == 0j
    assert not np.isfinite(out[1])
    assert np.isfinite(out[2]) and abs(out[2]) < 1e-100
    assert out[3] == 0j


def test_escape_guard_grid():
    z = np.array([1.0 + 0j, 2e12 + 0j, complex(np.inf, 0.0)])
    out = escape_guard_grid(z)
    assert out[0] == 1.0 + 0j
    assert not np.isfinite(out[1])
    assert not np.isfinite(out[2])


# ------------------------------------------------------------ success floor

def test_success_floor_bounds_p_over_the_sphere():
    # p's minimum over ~1e5 points at moduli 1e-6 to 1e6, and infinity, never falls below the floor;
    # one tuple in three has a numerator and denominator sharing a near-root, where p nearly vanishes
    rng = np.random.default_rng(17)
    r = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 100_000))
    z = np.append(r * np.exp(2j * math.pi * rng.uniform(size=r.size)), INFINITY)
    for k in range(60):
        a, d, root, s, t = rng.normal(size=5) + 1j * rng.normal(size=5)
        if k % 3 == 0:
            near = root + 10.0 ** rng.uniform(-8, -2) * cmath.exp(2j * math.pi * rng.uniform())
            coeffs = (a, -a * (root + s), a * root * s, d, -d * (near + t), d * near * t)
        else:
            coeffs = tuple(rng.normal(size=6) + 1j * rng.normal(size=6))
        coeffs = tuple(np.array(c) for c in coeffs)
        _, p = quadratic_step(z, coeffs, with_p=True)
        assert 0.0 < success_floor(coeffs) <= p.min()


@pytest.mark.parametrize("varphi", [0.0, 0.2375 * math.pi, 0.4999999 * math.pi])
def test_success_floor_of_the_ideal_map_is_its_minimum(varphi):
    # p >= cos^2 varphi / 4, reached on the poles
    want = math.cos(varphi) ** 2 / 4.0
    assert abs(success_floor(ideal_coefficients(varphi)) - want) <= 1e-14 * want


# ------------------------------------------------ the analyses on the exact step

EXACT_VARPHI = 0.2375 * math.pi


@pytest.fixture(scope="module", params=[2.0, 10.0, 100.0], ids=lambda nbar: f"nbar{nbar:g}")
def exact_coefficients(request):
    return step_coefficients(exact_step_operator(request.param), EXACT_VARPHI)


def test_exact_derivative_matches_finite_differences(exact_coefficients):
    rng = np.random.default_rng(41)
    z = rng.uniform(-2, 2, size=200) + 1j * rng.uniform(-2, 2, size=200)
    h = 1e-4

    def f(x):
        return quadratic_step(x, exact_coefficients)

    # the five-point central difference, accurate to O(h^4)
    approx = (f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h) - f(z + 2 * h)) / (12 * h)
    exact = np.array([map_derivative(x, exact_coefficients) for x in z])
    assert np.all(np.abs(exact - approx) <= 1e-8 * np.maximum(1.0, np.abs(exact)))


def test_exact_critical_points_are_zeros_of_the_derivative(exact_coefficients):
    points = critical_points(exact_coefficients, EXACT_VARPHI)
    assert not any(is_infinite(c) for c in points)
    for c in points:
        assert abs(map_derivative(c, exact_coefficients)) < 1e-10
    # the one nearer e^{-i varphi} first
    near = cmath.exp(-1j * EXACT_VARPHI)
    assert abs(points[0] - near) < abs(points[1] - near)


def test_exact_inverse_branches_map_back(exact_coefficients):
    rng = np.random.default_rng(43)
    targets = [0j, INFINITY] + [complex(*rng.uniform(-3, 3, size=2)) for _ in range(100)]
    for w in targets:
        for z in inverse_branches(w, exact_coefficients):
            assert chordal_distance(step_point(z, exact_coefficients)[0], w) < 1e-9


@pytest.mark.parametrize("nbar, attractors", [
    (2.0, [1.38499 - 0.25336j, -1.35560 + 0.48802j]),
    (10.0, [1.03045 - 0.03043j, -1.03046 + 0.03060j]),
    (100.0, [1.00273 - 0.00254j, -1.00273 + 0.00254j]),
])
def test_exact_step_attractors(nbar, attractors):
    coeffs = step_coefficients(exact_step_operator(nbar), EXACT_VARPHI)
    cycles = attractive_cycle_batch([(coeffs, EXACT_VARPHI)])[0]
    assert [len(points) for points, _ in cycles] == [1, 1]
    assert all(classify_multiplier(m) == "attractive" for _, m in cycles)
    for (points, _), want in zip(cycles, attractors):
        assert abs(points[0] - want) < 1e-4


def test_a_critical_point_at_infinity():
    # f(z) = z^2 + 2z has f' = 2z + 2: critical points -1 and infinity, ordered by e^{-i varphi}
    coeffs = (1.0, 2.0, 0.0, 0.0, 0.0, 1.0)
    assert critical_points(coeffs, math.pi) == (-1.0, INFINITY)
    assert critical_points(coeffs, 0.0) == (INFINITY, -1.0)
    assert inverse_branches(-1.0, coeffs) == (-1.0, -1.0)
    assert inverse_branches(INFINITY, coeffs) == (INFINITY, INFINITY)


def test_the_batch_starts_every_orbit_at_its_critical_point(step_inputs):
    exact = step_coefficients(exact_step_operator(2.0), EXACT_VARPHI)
    polynomial = (1.0, 2.0, 0.0, 0.0, 0.0, 1.0)  # z^2 + 2z, a critical point at infinity
    ideal = ideal_coefficients(EXACT_VARPHI)
    maps = [(ideal, EXACT_VARPHI), (exact, EXACT_VARPHI), (polynomial, 0.0), (polynomial, math.pi)]
    attractive_cycle_batch(maps, burn=1, max_period=1)
    points = [critical_points(coeffs, varphi) for coeffs, varphi in maps]
    # the first critical point of every map, then the second one, bit for bit
    want = np.array([p[0] for p in points] + [p[1] for p in points])
    assert np.array_equal(step_inputs[0].view(np.int64), want.view(np.int64))
    assert want[2] == want[7] == INFINITY


def test_the_batch_steps_infinity_to_a_over_d(step_inputs):
    # (z^2 + z) / (z^2 + z + 1) has critical points infinity and -1/2, and f(infinity) = a/d = 1
    rational = (1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    maps = [(rational, 0.0), (ideal_coefficients(EXACT_VARPHI), EXACT_VARPHI)]
    per_orbit = tuple(np.array([complex(c[k]) for c, _ in maps] * 2) for k in range(6))
    for burn in (0, 1):  # the first step of the post-burn orbit, then of the burn
        step_inputs.clear()
        attractive_cycle_batch(maps, burn=burn, max_period=2)
        first, second = step_inputs[:2]
        assert first[0] == INFINITY and second[0] == 1.0
        assert np.array_equal(second.view(np.int64), quadratic_step(first, per_orbit).view(np.int64))


@pytest.fixture(scope="module")
def mixed_ideal_maps():
    """Ideal maps that settle, carry a pair of 4-cycles, fall to 0, drift by ulps, are chaotic; with full burns."""
    maps = [(ideal_coefficients(t * math.pi), t * math.pi) for t in (0.2375, 0.251953125, 0.45, 0.1, 0.3)]
    return [(m, full_burn_cycles(*m, 10_000)) for m in maps]


def test_a_mixed_batch_equals_per_map_full_burns(mixed_ideal_maps, exact_coefficients):
    cases = mixed_ideal_maps + [((exact_coefficients, EXACT_VARPHI),
                                 full_burn_cycles(exact_coefficients, EXACT_VARPHI, 10_000))]
    for got, (_, want) in zip(attractive_cycle_batch([m for m, _ in cases]), cases):
        assert [points for points, _ in got] == [points for points, _ in want]
        assert [m for _, m in got] == [m for _, m in want]
