"""Command-line front end: every experiment as a deterministic file emitter.

Angles accept raw radians or multiples of pi with a "pi" suffix (0.2375pi, -pi).
All randomness is seeded by --seed, whose default is experiments.DEFAULT_SEED,
so a re-run with the same flags writes byte-identical CSV/PPM files.

Each flag is checked by its argparse type, defaults included, so a bad value
is a usage error (exit 2) that names the flag; a count above sys.maxsize - 1
is one too.  Runtime and I/O errors, running out of memory included, exit 1.
"""

from __future__ import annotations

import argparse
import cmath
import ctypes
import functools
import math
import os
import sys

import numpy as np

from . import experiments as ex
from . import output
from . import protocol as proto
from . import rational_map as rm
from .sphere import as_point
from .tavis_cummings import f_state_lo_phases, homodyne_density


class BadValue(ValueError, argparse.ArgumentTypeError):
    """A flag value out of range; argparse prints its message after the flag."""


def _bounded(kind, low=-math.inf, strict=False, high=math.inf):
    """argparse type: a finite `kind` number >= low (> low when strict) and <= high."""
    rule = ("a finite float" if kind is float else "an int") + (
        "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}") + (
        "" if high == math.inf else f" and <= {high:g}" if kind is float else f" and <= {high}")

    def parse(text: str):
        value = kind(text)
        if not ((value > low if strict else value >= low) and value <= high and abs(value) < math.inf):
            raise BadValue(f"{text!r} is not {rule}")
        return value

    parse.__name__ = kind.__name__  # argparse reports "invalid int value: 'x'"
    return parse


# a count fits a C integer, and max_period + 1 still fits the burn's history deque
_count = _bounded(int, 0, high=sys.maxsize - 1)
_positive_int = _bounded(int, 1, high=sys.maxsize - 1)
_nonnegative = _bounded(float, 0.0)
_positive = _bounded(float, 0.0, strict=True)
_finite = _bounded(float)
_nbar = _bounded(float, 0.0, high=proto.MAX_NBAR)  # where the exact operator is built


def parse_angle(text: str) -> float:
    t = text.strip().lower()
    if t.endswith("pi"):
        head = t[:-2]
        value = float(head + "1" if head in ("", "+", "-") else head) * math.pi
    else:
        value = float(t)
    if not math.isfinite(value):
        raise BadValue(f"angle {text!r} is not finite")
    return value


def parse_gate_angle(text: str) -> float:
    """A gate angle at which the map is not identically zero."""
    varphi = parse_angle(text)
    if rm.is_degenerate(varphi):
        raise BadValue("degenerate gate angle (cos varphi = 0, the map is identically zero)")
    return varphi


def parse_complex(text: str) -> complex:
    """re,im or a real number; an infinite part means the point at infinity."""
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) > 2 or any(math.isnan(v) for v in parts):
        raise BadValue(f"{text!r} is not a complex number re,im")
    return complex(parts[0], parts[1] if len(parts) == 2 else 0.0)


def parse_region(text: str) -> tuple[float, float, float, float]:
    parts = [_finite(tok) for tok in text.split(",")]
    if len(parts) != 4:
        raise BadValue("region needs four numbers: xmin,xmax,ymin,ymax")
    xmin, xmax, ymin, ymax = parts
    if not (xmax > xmin and ymax > ymin):
        raise BadValue("region must have positive extent")
    if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
        raise BadValue("region extent overflows a float")
    return (xmin, xmax, ymin, ymax)


def parse_resolution(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise BadValue("resolution must look like 800x800")
    w, h = int(parts[0]), int(parts[1])
    if w < 1 or h < 1:
        raise BadValue("resolution must be at least 1x1")
    return (w, h)


def parse_q_range(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise BadValue("q-range needs qmin,qmax,count")
    qmin, qmax, count = _finite(parts[0]), _finite(parts[1]), _positive_int(parts[2])
    if not math.isfinite(qmax - qmin):
        raise BadValue("q-range width overflows a float")
    return (qmin, qmax, count)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcmap",
        description="iterated cavity-postselection map: dynamics, fractals, discrimination",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    seed = dict(type=_bounded(int, 0), default=ex.DEFAULT_SEED, help=f"random seed (default {ex.DEFAULT_SEED})")

    def command(name, run, help, varphi=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, parser=p)  # the subcommand's parser reports errors between its flags
        p.add_argument("--out", "-o", required=True, help="output file path")
        if varphi:
            p.add_argument("--varphi", required=True, type=parse_gate_angle,
                           help="gate angle (radians or e.g. 0.2375pi)")
        return p

    def exact_step(p):
        p.add_argument("--nbar", type=_nbar, default=None, help="mean photon number")
        p.add_argument("--gt", type=_finite, default=None, help="interaction time (default pi*sqrt(nbar)/2)")
        p.add_argument("--op-file", type=str, default=None,
                       help="step operator dumped by exact-op; with --nbar (and --gt) it must match the "
                            "operator they build within 1e-12")

    def search(p):
        p.add_argument("--burn", type=_count, default=10_000, help="critical-orbit steps (default 10000)")
        p.add_argument("--max-period", type=_positive_int, default=64, help="longest period sought (default 64)")

    p = command("map", run_map, "iterate one starting label, CSV trajectory")
    p.add_argument("--z", required=True, type=parse_complex, help="starting label, re,im or inf")
    p.add_argument("--steps", type=_count, default=10, help="iterations (default 10)")

    p = command("cycles", run_cycles, "attractive cycles from the critical orbits")
    search(p)

    p = command("sweep", run_sweep, "stability diagram over a gate-angle grid", varphi=False)
    p.add_argument("--grid", type=_positive_int, default=512, help="number of angle samples (default 512)")
    p.add_argument("--phi-min", type=parse_angle, default="0", help="lower end of the angle range (default 0)")
    p.add_argument("--phi-max", type=parse_angle, default="2pi", help="upper end of the angle range (default 2pi)")
    search(p)

    p = command("julia", run_julia, "backward-iteration sample of the Julia set")
    p.add_argument("--points", type=_count, default=10_000, help="sample size (default 10000)")
    p.add_argument("--seed", **seed)
    p.add_argument("--image", type=str, default=None, help="optional PPM raster of the sample")
    p.add_argument("--region", type=parse_region, default="-2,2,-2,2", help="plane window (default -2,2,-2,2)")
    p.add_argument("--res", type=parse_resolution, default="800x800", help="pixels, WxH (default 800x800)")

    for name in ("basin", "exact-basin"):
        p = command(name, run_basin, f"{name} classification image")
        p.add_argument("--region", type=parse_region, default="-2,2,-2,2", help="plane window (default -2,2,-2,2)")
        p.add_argument("--res", type=parse_resolution, default="800x800", help="pixels, WxH (default 800x800)")
        p.add_argument("--tol", type=_positive, default=0.1, help="attractor capture radius (default 0.1)")
        p.add_argument("--max-iter", type=_positive_int, default=97, help="steps per cell (default 97)")
        p.add_argument("--csv", type=str, default=None, help="optional CSV dump of the grid")
    exact_step(p)  # exact-basin's parser, the loop's last

    p = command("discriminate", run_discriminate, "overlap Monte Carlo for two starting labels", varphi=False)
    p.add_argument("--varphi", type=parse_gate_angle, default="0", help="gate angle (default 0)")
    p.add_argument("--z1", type=parse_complex, default="-0.2,0", help="first label, re,im or inf (default -0.2,0)")
    p.add_argument("--z2", type=parse_complex, default="0.2,0", help="second label, re,im or inf (default 0.2,0)")
    p.add_argument("--sigma", type=_nonnegative, default=0.03,
                   help="standard deviation of the Gaussian noise on each label's re and im (default 0.03)")
    p.add_argument("--samples", type=_positive_int, default=10_000, help="noisy label pairs (default 10000)")
    p.add_argument("--steps", type=_count, default=7, help="iterations after step 0 (default 7)")
    p.add_argument("--seed", **seed)
    p.add_argument("--map-kind", choices=("ideal", "exact"), default="ideal", help="step to iterate (default ideal)")
    exact_step(p)

    p = command("resources", run_resources, "pair count per iteration, N = ceil((8/cos^2 varphi)^n)")
    p.add_argument("--n", type=_count, default=3, help="iterations, rows 0..n (default 3)")

    p = command("homodyne", run_homodyne, "quadrature densities of the field components", varphi=False)
    p.add_argument("--nbar", type=_nonnegative, required=True, help="mean photon number")
    p.add_argument("--phi", type=parse_angle, default="0", help="field phase (default 0)")
    p.add_argument("--theta", type=parse_angle, default="0", help="local-oscillator phase (default 0)")
    p.add_argument("--gt", type=_finite, default=None, help="interaction time (default pi*sqrt(nbar)/2)")
    p.add_argument("--q-range", type=parse_q_range, default="-6,6,241", help="qmin,qmax,count (default -6,6,241)")

    p = command("exact-op", run_exact_op, "dump the exact 4x4 step operator as CSV", varphi=False)
    p.add_argument("--nbar", type=_nbar, required=True, help="mean photon number")
    p.add_argument("--gt", type=_finite, default=None, help="interaction time (default pi*sqrt(nbar)/2)")
    p.add_argument("--phi", type=parse_angle, default="0", help="field phase (default 0)")

    return parser


# flags whose values may start with a minus sign (argparse would read them as options)
_NEGATIVE_VALUE_FLAGS = {
    "--region", "--q-range", "--z", "--z1", "--z2",
    "--phi-min", "--phi-max", "--theta", "--phi", "--gt", "--varphi",
}


def _merge_negative_values(argv):
    out = []
    for tok in argv:
        if out and out[-1] in _NEGATIVE_VALUE_FLAGS and tok.startswith("-") and len(tok) > 1:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def parse_config(argv) -> argparse.Namespace:
    """Parse argv into the namespace its runner `run` reads (usage errors exit 2)."""
    args, unknown = _build_parser().parse_known_args(_merge_negative_values(list(argv)))
    error = args.parser.error
    if unknown:
        error(f"unrecognized arguments: {' '.join(unknown)}")
    if hasattr(args, "op_file"):
        if getattr(args, "map_kind", "exact") == "ideal":
            for dest in ("nbar", "gt", "op_file"):
                if getattr(args, dest) is not None:
                    error(f"--{dest.replace('_', '-')} needs --map-kind exact")
        elif args.nbar is None and args.op_file is None:
            error("the exact step needs --nbar (or --op-file)")
        elif args.nbar is None and args.gt is not None:
            error("--gt with --op-file needs --nbar, to check the file against")
    if args.subcommand != "homodyne" and getattr(args, "gt", None) is not None and args.nbar is not None:
        limit = proto.max_interaction_time(args.nbar)
        if not abs(args.gt) <= limit:
            error(f"argument --gt: {args.gt!r} is beyond {limit:.6g}, where the phase of the highest "
                  f"block at --nbar {args.nbar!r} rounds by more than {proto.MAX_PHASE_ROUNDING:g}")
    for dest in ("csv", "image"):
        path = getattr(args, dest, None)
        if path is not None and os.path.realpath(path) == os.path.realpath(args.out):
            error(f"argument --{dest}: {path!r} is the --out file")
    return args


def _step_coefficients(args: argparse.Namespace) -> tuple:
    """The six step coefficients at --varphi: the exact step's when parse_config let --op-file or
    --nbar be set, otherwise the ideal map's.  The exact step is read from --op-file, which must
    match the operator --nbar and --gt build when --nbar is given, else built from them."""
    if getattr(args, "nbar", None) is None and getattr(args, "op_file", None) is None:
        return rm.ideal_coefficients(args.varphi)
    built = None if args.nbar is None else proto.exact_step_operator(args.nbar, gt=args.gt)
    if args.op_file is None:
        return proto.step_coefficients(built, args.varphi)
    matrix = proto.read_step_operator(args.op_file)
    gap = 0.0 if built is None else float(np.abs(matrix - built).max())
    if not gap <= 1e-12:
        gt = "" if args.gt is None else f" and --gt {args.gt!r}"
        raise ValueError(f"{args.op_file}: step operator differs by {gap:.3g} "
                         f"from the one --nbar {args.nbar!r}{gt} builds")
    return proto.step_coefficients(matrix, args.varphi)


def run_map(args: argparse.Namespace) -> None:
    z, coeffs = as_point(args.z), _step_coefficients(args)
    rows = [(0, z.real, z.imag, math.nan)]
    for k in range(1, args.steps + 1):
        z, p = rm.step_point(z, coeffs)
        rows.append((k, z.real, z.imag, p))
    output.write_csv(rows, ("step", "z_re", "z_im", "p_success"), args.out)


def run_cycles(args: argparse.Namespace) -> None:
    cycles = rm.find_attractive_cycles(_step_coefficients(args), args.varphi, args.burn, args.max_period)
    rows = [
        (cid, len(points), pidx, pt.real, pt.imag, m.real, m.imag, abs(m), rm.classify_multiplier(m))
        for cid, (points, m) in enumerate(cycles) for pidx, pt in enumerate(points)
    ]
    output.write_csv(
        rows,
        ("cycle_id", "period", "point_index", "z_re", "z_im",
         "multiplier_re", "multiplier_im", "abs_multiplier", "stability"),
        args.out,
    )


def run_sweep(args: argparse.Namespace) -> None:
    span = args.phi_max - args.phi_min
    grid = [args.phi_min + (k + 0.5) * span / args.grid for k in range(args.grid)]
    # an infinite span, or a finite one whose (k + 0.5) multiples overflow
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"the angle grid over [{args.phi_min!r}, {args.phi_max!r}] overflows a float")
    grid = [v for v in grid if not rm.is_degenerate(v)]
    if not grid:
        raise ValueError(f"no usable angle: every grid angle in [{args.phi_min!r}, {args.phi_max!r}] "
                         "is degenerate (cos varphi ~ 0)")
    rows_out = []
    for v, cycles in zip(grid, ex.phi_sweep(grid, burn=args.burn, max_period=args.max_period)):
        base = (v, *ex.fixed_point_multiplier_moduli(v))
        rows_out += [base + (len(points), abs(m)) for points, m in cycles] or [base + (0, 0.0)]
    output.write_csv(
        rows_out,
        ("varphi", "abs_lambda_0", "abs_lambda_plus1", "abs_lambda_minus1",
         "detected_period", "detected_abs_lambda"),
        args.out,
    )


def run_julia(args: argparse.Namespace) -> None:
    pts = rm.julia_backward_sample(args.varphi, args.points, seed=args.seed)
    image = None if args.image is None else output.point_cloud_image(pts, args.region, *args.res)
    output.write_csv([(p.real, p.imag) for p in pts], ("z_re", "z_im"), args.out)
    if image is not None:
        output.write_ppm(image, args.image)


def run_basin(args: argparse.Namespace) -> None:
    """basin and exact-basin: the chosen step moves the cells, classified toward the ideal attractors."""
    xs, ys = ex.grid_axes(args.region, *args.res)  # a bad window is refused before the step or the search
    coeffs = _step_coefficients(args)
    maps = [(rm.ideal_coefficients(args.varphi), args.varphi)]
    if args.subcommand == "exact-basin":
        maps.append((coeffs, args.varphi))
    ideal, *exact = rm.attractive_cycle_batch(maps)
    if not ideal:
        raise ValueError(f"no attractive cycles detected at varphi={args.varphi!r}")
    if exact:  # each exact attractor must lie within --tol of the ideal ones
        if not exact[0]:
            raise ValueError("the exact step has no attracting cycle at this angle")
        ideal_points = [p for points, _ in ideal for p in points]
        gaps = {points[0]: min(abs(p - q) for p in points for q in ideal_points) for points, _ in exact[0]}
        point = max(gaps, key=gaps.get)
        if not gaps[point] < args.tol:
            raise ValueError(f"the exact step's attracting cycle through {point:.6g} lies {gaps[point]:.3g} "
                             f"from the ideal attractors, beyond --tol {args.tol:g}")
    grid = ex.basin_grid(xs, ys, coeffs, [points for points, _ in ideal], args.tol, args.max_iter)
    output.write_ppm(output.render_basin_image(grid.attractor_ids, grid.iterations, args.max_iter), args.out)
    if args.csv is not None:
        output.write_basin_csv(xs, ys, grid.attractor_ids, grid.iterations, args.csv)


def run_discriminate(args: argparse.Namespace) -> None:
    coeffs = _step_coefficients(args)
    mean, rms, counts = ex.discrimination_run(args.z1, args.z2, args.sigma, args.samples, args.steps, coeffs,
                                              seed=args.seed)
    rows = [(k, mean[k], rms[k], int(args.samples - counts[k])) for k in range(args.steps + 1)]
    output.write_csv(rows, ("step", "mean_overlap", "rms", "failures"), args.out)


def run_resources(args: argparse.Namespace) -> None:
    rows = [(n, args.varphi, ex.resource_estimate(n, args.varphi)) for n in range(args.n + 1)]
    output.write_csv(rows, ("n", "varphi", "pairs"), args.out)


def run_homodyne(args: argparse.Namespace) -> None:
    alpha = math.sqrt(args.nbar) * cmath.exp(1j * args.phi)
    gt = args.gt if args.gt is not None else proto.default_interaction_time(args.nbar)
    thetas = (args.theta, *f_state_lo_phases(args.theta, args.nbar, gt))
    if not all(map(math.isfinite, thetas)):
        raise ValueError(f"the f-state phases theta -/+ gt/sqrt(nbar + 1/4) overflow a float "
                         f"at --theta {args.theta!r}, --nbar {args.nbar!r}, --gt {gt!r}")
    rows = [(q, *(homodyne_density(q, theta, alpha) for theta in thetas))
            for q in np.linspace(*args.q_range).tolist()]
    output.write_csv(rows, ("q", "density_alpha", "density_f_plus", "density_f_minus"), args.out)


def run_exact_op(args: argparse.Namespace) -> None:
    proto.write_step_operator(proto.exact_step_operator(args.nbar, gt=args.gt, phi=args.phi), args.out)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Let the C heap keep up to 64 MiB of freed memory and serve blocks below 4 MiB.

    With glibc's start-up thresholds, the ~1 MiB temporaries of every block
    step go back to the kernel when freed and are faulted in again by the
    next step.  Runs once per process; without mallopt it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        args.run(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"tcmap {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
