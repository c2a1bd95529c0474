"""End-to-end acceptance checks, one per headline claim of the toolkit.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure); every tolerance is fixed here, nothing is tuned at runtime.
"""

import cmath
import math

import numpy as np

from oracles import (
    apply_map,
    block_eigensystem,
    ideal_postselection_operator,
    iterate_map,
    total_norm,
    validated_cycle,
)
from tcmap.experiments import discrimination_run, overlap, resource_estimate
from tcmap.protocol import exact_step_operator, step_coefficients
from tcmap.rational_map import (
    classify_multiplier,
    find_attractive_cycles,
    ideal_coefficients,
    julia_backward_sample,
    map_derivative,
    step_point,
    two_cycle,
)
from tcmap.tavis_cummings import (
    evolve_exact,
    homodyne_density,
    poisson_amplitudes,
)


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:2d} [{status}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_angles(rng, n, margin=1e-3):
    out = []
    while len(out) < n:
        v = rng.uniform(0.0, 2.0 * math.pi)
        if abs(math.cos(v)) > margin:
            out.append(v)
    return out


def test_criterion_01_fixed_points_and_two_cycle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for v in _random_angles(rng, 100):
        for j in (-1.0, 0.0, 1.0):
            worst = max(worst, abs(apply_map(j, v) - j))
    a, b = two_cycle(0.0)
    cyc_ok = abs(a - 1j * math.sqrt(3.0)) < 1e-12 and abs(b + 1j * math.sqrt(3.0)) < 1e-12
    _, m = validated_cycle([a, b], ideal_coefficients(0.0))
    rep_ok = classify_multiplier(m) == "repelling" and abs(abs(m) - 4.0) < 1e-10
    _report(
        1,
        "fixed points {-1,0,1} for 100 random angles; two-cycle +-i sqrt(3) repelling with |lambda|=4",
        worst < 1e-12 and cyc_ok and rep_ok,
        f"worst fixed-point error {worst:.2e}",
    )


def test_criterion_02_stability_diagram_structure():
    grid = [(k + 0.5) * 2.0 * math.pi / 2000 for k in range(2000)]
    worst_closed = 0.0
    worst_fd_rel = 0.0
    h = 1e-6
    for v in grid:
        coeffs = ideal_coefficients(v)
        targets = (
            (0j, abs(2.0 * math.cos(v))),
            (1.0 + 0j, abs(math.tan(v))),
            (-1.0 + 0j, abs(math.tan(v))),
        )
        for z, lam in targets:
            worst_closed = max(worst_closed, abs(abs(map_derivative(z, coeffs)) - lam))
            fd = (step_point(z + h, coeffs)[0] - step_point(z - h, coeffs)[0]) / (2.0 * h)
            worst_fd_rel = max(worst_fd_rel, abs(abs(fd) - lam) / max(1.0, lam))

    # class transitions of the +-1 pair at pi/4 and of 0 at pi/3
    spacing = 2.0 * math.pi / 2000
    def transition(moduli_fn, threshold_angle):
        flips = []
        for a, b in zip(grid, grid[1:]):
            if (moduli_fn(a) < 1.0) != (moduli_fn(b) < 1.0):
                flips.append(0.5 * (a + b))
        return min(abs(f - threshold_angle) for f in flips)

    t1 = transition(lambda v: abs(math.tan(v)), math.pi / 4.0)
    t0 = transition(lambda v: abs(2.0 * math.cos(v)), math.pi / 3.0)

    cycles = find_attractive_cycles(ideal_coefficients(1.01 * math.pi / 4.0), 1.01 * math.pi / 4.0)
    four = [c for c in cycles if len(c[0]) == 4 and classify_multiplier(c[1]) == "attractive"]

    _report(
        2,
        "multiplier moduli |2cos|, |tan| on a 2000-angle grid; transitions at pi/4, pi/3; 4-cycles inside",
        worst_closed < 1e-10 and worst_fd_rel < 1e-5 and t1 <= spacing and t0 <= spacing and len(four) == 2,
        f"closed-form err {worst_closed:.1e}, fd rel err {worst_fd_rel:.1e}, "
        f"transition offsets {t1:.2e}/{t0:.2e}, {len(four)} four-cycles",
    )


def test_criterion_03_discrimination_headline():
    mean, _, _ = discrimination_run(-0.2, 0.2, sigma=0.0, samples=1, steps=3, coeffs=ideal_coefficients(0.0), seed=1)
    # independent re-derivation: direct scalar iteration plus the overlap formula
    z1, z2 = -0.2 + 0j, 0.2 + 0j
    direct = []
    for _ in range(4):
        direct.append(overlap(z1, z2))
        z1, z2 = apply_map(z1, 0.0), apply_map(z2, 0.0)
    ok = (
        abs(mean[0] - 0.9231) < 1e-4
        and mean[3] <= 0.085
        and abs(mean[3] - direct[3]) < 1e-3
        and abs(mean[3] - 0.0779) < 1e-3
    )
    _report(
        3,
        "noiseless pair -0.2/0.2: overlap 0.9231 at step 0, <= 0.085 at step 3, matches re-derivation",
        ok,
        f"sequence {np.round(mean, 4)}",
    )


def test_criterion_04_noise_robustness():
    mean, rms, _ = discrimination_run(-0.2, 0.2, sigma=0.03, samples=10_000, steps=6, coeffs=ideal_coefficients(0.0),
                                      seed=12345)
    ok = rms[5] < rms[2] and mean[6] < 0.05
    _report(
        4,
        "sigma=0.03, 10^4 samples: rms at step 5 below rms at step 2, mean overlap at step 6 below 0.05",
        ok,
        f"rms2={rms[2]:.4f}, rms5={rms[5]:.6f}, "
        f"mean6={mean[6]:.2e}",
    )


def test_criterion_05_exact_map_fixed_points():
    results = {}
    for nbar in (10.0, 100.0):
        coeffs = step_coefficients(exact_step_operator(nbar), 0.0)
        for z0 in (0.5, -0.5):
            z = complex(z0)
            for _ in range(97):
                z, _ = step_point(z, coeffs)
            target = 1.0 if z0 > 0 else -1.0
            results[(nbar, z0)] = abs(z - target)
    ok = results[(10.0, 0.5)] < 0.1 and results[(10.0, -0.5)] < 0.1 \
        and results[(100.0, 0.5)] < 0.01 and results[(100.0, -0.5)] < 0.01
    _report(
        5,
        "exact map lands within 0.1 (nbar=10) and 0.01 (nbar=100) of +-1 after <= 97 steps from +-0.5",
        ok,
        f"distances nbar=10: {results[(10.0, 0.5)]:.3f}, nbar=100: {results[(100.0, 0.5)]:.4f}",
    )


def test_criterion_06_exact_to_ideal_convergence():
    varphi = 0.95 * math.pi / 4.0
    grid9 = [complex(x, y) for x in (-0.6, 0.0, 0.6) for y in (-0.6, 0.0, 0.6)]
    discrepancy = {}
    for nbar in (10.0, 50.0, 100.0):
        coeffs = step_coefficients(exact_step_operator(nbar), varphi)
        worst = 0.0
        for z in grid9:
            z_exact, _ = step_point(z, coeffs)
            z_ideal = apply_map(z, varphi)
            worst = max(worst, abs(z_exact - z_ideal))
        discrepancy[nbar] = worst
    ok = discrepancy[10.0] > discrepancy[50.0] > discrepancy[100.0]
    _report(
        6,
        "max single-step |z'_exact - z'_ideal| over a fixed 9-point grid decreases over nbar in {10,50,100}",
        ok,
        f"{discrepancy[10.0]:.4f} > {discrepancy[50.0]:.4f} > {discrepancy[100.0]:.4f}",
    )


def test_criterion_07_julia_structure():
    # the ideal map's critical points are +-e^{-i varphi}
    # totally disconnected case: both critical orbits reach the same fixed point 0
    varphi_a = 1.666 * math.pi
    ends_a = [iterate_map(s * cmath.exp(-1j * varphi_a), varphi_a, 3000)[-1] for s in (1, -1)]
    merged = find_attractive_cycles(ideal_coefficients(varphi_a), varphi_a)
    case_a = (
        all((not cmath.isinf(e)) and abs(e) < 1e-3 for e in ends_a)
        and len(merged) == 1
        and abs(merged[0][0][0]) < 1e-6
    )
    # connected case: the critical orbits split between +1 and -1
    varphi_b = 0.95 * math.pi / 4.0
    zc_plus, zc_minus = cmath.exp(-1j * varphi_b), -cmath.exp(-1j * varphi_b)
    end_plus = iterate_map(zc_plus, varphi_b, 3000)[-1]
    end_minus = iterate_map(zc_minus, varphi_b, 3000)[-1]
    case_b = abs(end_plus - 1.0) < 1e-6 and abs(end_minus + 1.0) < 1e-6
    # the line case: backward samples at varphi=0 stay on the imaginary axis
    pts = julia_backward_sample(ideal_coefficients(0.0), two_cycle(0.0)[0], 1000, seed=2024)
    case_c = float(np.max(np.abs(pts.real))) < 1e-6
    _report(
        7,
        "critical orbits: single attractor at 1.666pi, split +1/-1 at 0.95pi/4; Julia line on the imaginary axis",
        case_a and case_b and case_c,
        f"axis deviation {float(np.max(np.abs(pts.real))):.1e}",
    )


def test_criterion_08_success_probability_bound():
    rng = np.random.default_rng(808)
    ok_bound = True
    worst_gap = math.inf
    for _ in range(10_000):
        varphi = rng.uniform(0.0, 2.0 * math.pi)
        if abs(math.cos(varphi)) < 1e-9:
            continue
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        _, p = step_point(z, ideal_coefficients(varphi))
        gap = p - math.cos(varphi) ** 2 / 4.0
        worst_gap = min(worst_gap, gap)
        if gap < -1e-12:
            ok_bound = False
    varphi = 0.77
    _, p_min = step_point(1j * cmath.exp(-1j * varphi), ideal_coefficients(varphi))
    eq_err = abs(p_min - math.cos(varphi) ** 2 / 4.0)
    _report(
        8,
        "success probability >= cos^2/4 over 10^4 random points, equality at the pole z = i e^{-i varphi}",
        ok_bound and eq_err < 1e-9,
        f"worst gap {worst_gap:.2e}, equality error {eq_err:.1e}",
    )


def test_criterion_09_resource_formula():
    ok = resource_estimate(3, 0.0) == 512 and resource_estimate(2, math.pi / 4.0) == 256
    _report(9, "resource counts: (n=3, varphi=0) -> 512 pairs, (n=2, pi/4) -> 256 pairs", ok)


def test_criterion_10_physics_invariant_suite():
    rng = np.random.default_rng(1010)

    def random_atom():
        v = rng.normal(size=8)
        c = v[0::2] + 1j * v[1::2]
        c /= np.linalg.norm(c)
        return c[[3, 2, 0, 1]]  # drawn as c0, c-, c+, c1; the Bell order is (|1,1>, |Psi+>, |0,0>, |Psi->)

    # norm conservation
    norm_worst = 0.0
    for i in range(100):
        joint = evolve_exact(random_atom(), (5.0, 10.0, 50.0)[i % 3], rng.uniform(0.0, 8.0))
        norm_worst = max(norm_worst, abs(total_norm(joint) - 1.0))
    norm_ok = norm_worst < 1e-10

    # projector idempotence and self-adjointness
    proj_worst = 0.0
    for phi in rng.uniform(0.0, 2.0 * math.pi, size=20):
        m = ideal_postselection_operator(phi)
        proj_worst = max(proj_worst, float(np.max(np.abs(m @ m - m))), float(np.max(np.abs(m - m.conj().T))))
    proj_ok = proj_worst < 1e-14

    # dark channel: bit-level proportionality to the input coherent coefficients
    atom = np.array([0j, 0j, 0j, 0.6 - 0.2j])
    p = poisson_amplitudes(12.0, 0.3)
    dark_ok = True
    for gt in (0.7, 3.1, 9.4):
        joint = evolve_exact(atom, 12.0, gt, 0.3)
        expected = np.zeros_like(joint[3])
        expected[: len(p)] = atom[3] * p
        dark_ok = dark_ok and np.array_equal(joint[3], expected)

    # block unitarity
    block_worst = 0.0
    for n in (1, 2, 3, 10, 40):
        vals, o = block_eigensystem(n)
        u = o @ np.diag(np.exp(-1j * vals * 2.7)) @ o.T
        block_worst = max(block_worst, float(np.max(np.abs(u @ u.conj().T - np.eye(len(vals))))))
    block_ok = block_worst < 1e-12

    # homodyne normalization
    qs = np.linspace(-14.0, 14.0, 40001)
    homo_worst = 0.0
    for alpha, theta in ((1.5 + 0j, 0.0), (2.0 * cmath.exp(0.9j), 0.7)):
        dens = np.array([homodyne_density(float(q), theta, alpha) for q in qs])
        homo_worst = max(homo_worst, abs(float(np.trapezoid(dens, qs)) - 1.0))
    homo_ok = homo_worst < 1e-8

    _report(
        10,
        "physics invariants: norms 1e-10, projector 1e-14, dark channel exact, blocks 1e-12, homodyne 1e-8",
        norm_ok and proj_ok and dark_ok and block_ok and homo_ok,
        f"norm {norm_worst:.1e}, projector {proj_worst:.1e}, blocks {block_worst:.1e}, homodyne {homo_worst:.1e}",
    )
