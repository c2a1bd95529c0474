"""Command-line front end: every experiment as a deterministic file emitter.

Angles accept raw radians or multiples of pi with a "pi" suffix (0.2375pi).
All randomness is seeded; the default seed is experiments.DEFAULT_SEED and
can be overridden with --seed or the TCMAP_SEED environment variable, so a
re-run with the same flags writes byte-identical CSV/PPM files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import experiments as ex
from . import output
from . import protocol as proto
from . import rational_map as rm
from .sphere import INFINITY, is_infinite
from .tavis_cummings import CoherentFieldSpec, HomodyneSpec, f_state_lo_phases, homodyne_density

SEED_ENV_VAR = "TCMAP_SEED"

SUBCOMMANDS = (
    "map",
    "cycles",
    "sweep",
    "julia",
    "basin",
    "exact-basin",
    "discriminate",
    "resources",
    "homodyne",
    "exact-op",
)


@dataclass
class RunConfig:
    """Validated settings of one CLI invocation."""

    subcommand: str
    out: str
    varphi: Optional[float] = None
    nbar: Optional[float] = None
    gt: Optional[float] = None
    phi_field: float = 0.0
    region: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    width: int = 800
    height: int = 800
    tol: float = 0.1
    max_iter: int = 97
    sigma: float = 0.03
    samples: int = 10_000
    steps: int = 7
    seed: int = ex.DEFAULT_SEED
    map_kind: str = "ideal"
    z: Optional[complex] = None
    z1: complex = -0.2 + 0j
    z2: complex = 0.2 + 0j
    iterations: int = 3
    points: int = 10_000
    grid_size: int = 512
    phi_min: float = 0.0
    phi_max: float = 2.0 * math.pi
    burn: int = 10_000
    max_period: int = 64
    cycle_tol: float = 1e-8
    q_range: tuple[float, float, int] = (-6.0, 6.0, 241)
    theta: float = 0.0
    op_file: Optional[str] = None
    csv_out: Optional[str] = None
    image_out: Optional[str] = None


def parse_angle(text: str) -> float:
    t = text.strip().lower()
    if t.endswith("pi"):
        return float(t[:-2] or "1") * math.pi
    return float(t)


def parse_complex(text: str) -> complex:
    t = text.strip().lower()
    if t in ("inf", "infinity"):
        return complex(math.inf, 0.0)
    if "," in t:
        re_s, im_s = t.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(t), 0.0)


def parse_region(text: str) -> tuple[float, float, float, float]:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 4:
        raise ValueError("region needs four numbers: xmin,xmax,ymin,ymax")
    xmin, xmax, ymin, ymax = parts
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("region must have positive extent")
    return (xmin, xmax, ymin, ymax)


def parse_resolution(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError("resolution must look like 800x800")
    w, h = int(parts[0]), int(parts[1])
    if w < 1 or h < 1:
        raise ValueError("resolution must be at least 1x1")
    return (w, h)


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return ex.DEFAULT_SEED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcmap",
        description="iterated cavity-postselection map: dynamics, fractals, discrimination",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, needs_varphi: bool):
        p.add_argument("--out", "-o", required=True, help="output file path")
        if needs_varphi:
            p.add_argument("--varphi", required=True, type=str, help="gate angle (radians or e.g. 0.2375pi)")

    p = sub.add_parser("map", help="iterate one starting label, CSV trajectory")
    add_common(p, True)
    p.add_argument("--z", required=True, type=str, help="starting label, re,im or inf")
    p.add_argument("--steps", type=int, default=10)

    p = sub.add_parser("cycles", help="attractive cycles from the critical orbits")
    add_common(p, True)
    p.add_argument("--burn", type=int, default=10_000)
    p.add_argument("--max-period", type=int, default=64)
    p.add_argument("--cycle-tol", type=float, default=1e-8)

    p = sub.add_parser("sweep", help="stability diagram over a gate-angle grid")
    add_common(p, False)
    p.add_argument("--grid", type=int, default=512, help="number of angle samples")
    p.add_argument("--phi-min", type=str, default="0")
    p.add_argument("--phi-max", type=str, default="2pi")
    p.add_argument("--burn", type=int, default=10_000)
    p.add_argument("--max-period", type=int, default=64)

    p = sub.add_parser("julia", help="backward-iteration sample of the Julia set")
    add_common(p, True)
    p.add_argument("--points", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--image", type=str, default=None, help="optional PPM raster of the sample")
    p.add_argument("--region", type=str, default="-2,2,-2,2")
    p.add_argument("--res", type=str, default="800x800")

    for name in ("basin", "exact-basin"):
        p = sub.add_parser(name, help=f"{name} classification image")
        add_common(p, True)
        p.add_argument("--region", type=str, default="-2,2,-2,2")
        p.add_argument("--res", type=str, default="800x800")
        p.add_argument("--tol", type=float, default=0.1)
        p.add_argument("--max-iter", type=int, default=97)
        p.add_argument("--csv", type=str, default=None, help="optional CSV dump of the grid")
        if name == "exact-basin":
            p.add_argument("--nbar", type=float, required=True)
            p.add_argument("--gt", type=float, default=None, help="defaults to pi*sqrt(nbar)/2")
            p.add_argument("--op-file", type=str, default=None, help="reuse a dumped step operator")

    p = sub.add_parser("discriminate", help="overlap Monte Carlo for two starting labels")
    add_common(p, False)
    p.add_argument("--varphi", type=str, default="0")
    p.add_argument("--z1", type=str, default="-0.2,0")
    p.add_argument("--z2", type=str, default="0.2,0")
    p.add_argument("--sigma", type=float, default=0.03)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--map-kind", choices=("ideal", "exact"), default="ideal")
    p.add_argument("--nbar", type=float, default=None)
    p.add_argument("--gt", type=float, default=None)
    p.add_argument("--op-file", type=str, default=None)

    p = sub.add_parser("resources", help="pair count per iteration, N = ceil((8/cos^2 varphi)^n)")
    add_common(p, True)
    p.add_argument("--n", type=int, default=3, help="iterations (rows 0..n)")

    p = sub.add_parser("homodyne", help="quadrature densities of the field components")
    add_common(p, False)
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--phi", type=str, default="0", help="field phase")
    p.add_argument("--theta", type=str, default="0", help="local-oscillator phase")
    p.add_argument("--gt", type=float, default=None)
    p.add_argument("--q-range", type=str, default="-6,6,241", help="qmin,qmax,count")

    p = sub.add_parser("exact-op", help="dump the exact 4x4 step operator as CSV")
    add_common(p, False)
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--gt", type=float, default=None)
    p.add_argument("--phi", type=str, default="0", help="field phase")

    return parser


# flags whose values may start with a minus sign (argparse would read them as options)
_NEGATIVE_VALUE_FLAGS = {
    "--region", "--q-range", "--z", "--z1", "--z2",
    "--phi-min", "--phi-max", "--theta", "--phi", "--gt", "--varphi",
}


def _merge_negative_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def parse_config(argv) -> RunConfig:
    """Parse and validate argv into a RunConfig (argparse usage errors exit 2)."""
    parser = _build_parser()
    ns = parser.parse_args(_merge_negative_values(list(argv)))
    cfg = RunConfig(subcommand=ns.subcommand, out=ns.out)

    if getattr(ns, "varphi", None) is not None:
        try:
            cfg.varphi = parse_angle(ns.varphi)
        except ValueError:
            parser.error(f"--varphi: cannot parse angle {ns.varphi!r}")
        if abs(math.cos(cfg.varphi)) < rm.DEGENERACY_EPS:
            parser.error("--varphi: degenerate gate angle (cos varphi = 0, the map is identically zero)")

    for attr, flag in (("z", "--z"), ("z1", "--z1"), ("z2", "--z2")):
        if getattr(ns, attr.replace("-", "_"), None) is not None and hasattr(ns, attr):
            try:
                setattr(cfg, attr, parse_complex(getattr(ns, attr)))
            except ValueError:
                parser.error(f"{flag}: cannot parse complex value {getattr(ns, attr)!r}")

    if getattr(ns, "region", None) is not None:
        try:
            cfg.region = parse_region(ns.region)
        except ValueError as exc:
            parser.error(f"--region: {exc}")
    if getattr(ns, "res", None) is not None:
        try:
            cfg.width, cfg.height = parse_resolution(ns.res)
        except ValueError as exc:
            parser.error(f"--res: {exc}")

    if getattr(ns, "tol", None) is not None:
        if ns.tol <= 0:
            parser.error("--tol: must be positive")
        cfg.tol = ns.tol
    if getattr(ns, "max_iter", None) is not None:
        if ns.max_iter < 1:
            parser.error("--max-iter: must be >= 1")
        cfg.max_iter = ns.max_iter

    if getattr(ns, "sigma", None) is not None:
        if ns.sigma < 0:
            parser.error("--sigma: must be >= 0")
        cfg.sigma = ns.sigma
    if getattr(ns, "samples", None) is not None:
        if ns.samples < 1:
            parser.error("--samples: must be >= 1")
        cfg.samples = ns.samples
    if getattr(ns, "steps", None) is not None:
        if ns.steps < 0:
            parser.error("--steps: must be >= 0")
        cfg.steps = ns.steps
    if getattr(ns, "points", None) is not None:
        if ns.points < 0:
            parser.error("--points: must be >= 0")
        cfg.points = ns.points
    if getattr(ns, "burn", None) is not None:
        if ns.burn < 0:
            parser.error("--burn: must be >= 0")
        cfg.burn = ns.burn
    if getattr(ns, "max_period", None) is not None:
        cfg.max_period = ns.max_period
    if getattr(ns, "cycle_tol", None) is not None:
        cfg.cycle_tol = ns.cycle_tol
    if getattr(ns, "grid", None) is not None:
        if ns.grid < 1:
            parser.error("--grid: must be >= 1")
        cfg.grid_size = ns.grid
    if getattr(ns, "phi_min", None) is not None:
        cfg.phi_min = parse_angle(ns.phi_min)
    if getattr(ns, "phi_max", None) is not None:
        cfg.phi_max = parse_angle(ns.phi_max)
    if getattr(ns, "n", None) is not None:
        if ns.n < 0:
            parser.error("--n: must be >= 0")
        cfg.iterations = ns.n

    if getattr(ns, "nbar", None) is not None:
        if ns.nbar < 0:
            parser.error("--nbar: must be >= 0")
        cfg.nbar = ns.nbar
    if getattr(ns, "gt", None) is not None:
        cfg.gt = ns.gt
    if getattr(ns, "phi", None) is not None:
        cfg.phi_field = parse_angle(ns.phi)
    if getattr(ns, "theta", None) is not None:
        cfg.theta = parse_angle(ns.theta)
    if getattr(ns, "q_range", None) is not None:
        parts = ns.q_range.split(",")
        if len(parts) != 3:
            parser.error("--q-range: needs qmin,qmax,count")
        cfg.q_range = (float(parts[0]), float(parts[1]), int(parts[2]))

    if getattr(ns, "seed", None) is not None:
        cfg.seed = ns.seed
    else:
        cfg.seed = _default_seed()

    if getattr(ns, "map_kind", None) is not None:
        cfg.map_kind = ns.map_kind
    cfg.op_file = getattr(ns, "op_file", None)
    cfg.csv_out = getattr(ns, "csv", None)
    cfg.image_out = getattr(ns, "image", None)

    if cfg.subcommand == "discriminate" and cfg.map_kind == "exact":
        if cfg.nbar is None and cfg.op_file is None:
            parser.error("--map-kind exact needs --nbar (or --op-file)")
    return cfg


def _sphere_to_pair(z) -> tuple[float, float]:
    if is_infinite(z):
        return (math.inf, 0.0)
    return (z.real, z.imag)


def _resolve_operator(cfg: RunConfig) -> proto.ExactStepOperator:
    if cfg.op_file is not None:
        return proto.read_step_operator(
            cfg.op_file,
            nbar=cfg.nbar if cfg.nbar is not None else math.nan,
            gt=cfg.gt if cfg.gt is not None else math.nan,
        )
    field = CoherentFieldSpec(nbar=cfg.nbar, phi=cfg.phi_field)
    return proto.exact_step_operator(field, gt=cfg.gt)


def run_map(cfg: RunConfig) -> None:
    rows = []
    z = INFINITY if math.isinf(abs(cfg.z)) else cfg.z
    re, im = _sphere_to_pair(z)
    rows.append((0, re, im, math.nan))
    for k in range(1, cfg.steps + 1):
        z, p = proto.protocol_step_ideal(z, cfg.varphi)
        re, im = _sphere_to_pair(z)
        rows.append((k, re, im, p))
    output.write_csv(rows, ("step", "z_re", "z_im", "p_success"), cfg.out)


def run_cycles(cfg: RunConfig) -> None:
    params = rm.MapParams(cfg.varphi)
    cycles = rm.find_attractive_cycles(
        params, burn=cfg.burn, max_period=cfg.max_period, tol=cfg.cycle_tol
    )
    rows = []
    for cid, rep in enumerate(cycles):
        for pidx, pt in enumerate(rep.points):
            re, im = _sphere_to_pair(pt)
            rows.append(
                (cid, rep.period, pidx, re, im,
                 rep.multiplier.real, rep.multiplier.imag, abs(rep.multiplier), rep.stability)
            )
    output.write_csv(
        rows,
        ("cycle_id", "period", "point_index", "z_re", "z_im",
         "multiplier_re", "multiplier_im", "abs_multiplier", "stability"),
        cfg.out,
    )


def run_sweep(cfg: RunConfig) -> None:
    span = cfg.phi_max - cfg.phi_min
    grid = [cfg.phi_min + (k + 0.5) * span / cfg.grid_size for k in range(cfg.grid_size)]
    grid = [v for v in grid if abs(math.cos(v)) >= rm.DEGENERACY_EPS]
    rows_out = []
    for row in ex.phi_sweep(grid, burn=cfg.burn, max_period=cfg.max_period):
        base = (row.varphi, row.abs_lambda_zero, row.abs_lambda_plus_one, row.abs_lambda_minus_one)
        if row.cycles:
            for rep in row.cycles:
                rows_out.append(base + (rep.period, abs(rep.multiplier)))
        else:
            rows_out.append(base + (0, 0.0))
    output.write_csv(
        rows_out,
        ("varphi", "abs_lambda_0", "abs_lambda_plus1", "abs_lambda_minus1",
         "detected_period", "detected_abs_lambda"),
        cfg.out,
    )


def run_julia(cfg: RunConfig) -> None:
    params = rm.MapParams(cfg.varphi)
    pts = rm.julia_backward_sample(params, cfg.points, seed=cfg.seed)
    rows = [(p.real, p.imag) for p in pts]
    output.write_csv(rows, ("z_re", "z_im"), cfg.out)
    if cfg.image_out is not None:
        img = output.point_cloud_image(pts, cfg.region, cfg.width, cfg.height)
        output.write_ppm(img, cfg.image_out)


def _emit_basin(cfg: RunConfig, grid: ex.BasinGrid) -> None:
    img = output.render_basin_image(grid.attractor_ids, grid.iterations, grid.max_iter)
    output.write_ppm(img, cfg.out)
    if cfg.csv_out is not None:
        pts = ex.grid_points(grid.region, grid.width, grid.height)
        rows = []
        for i in range(grid.height):
            for j in range(grid.width):
                rows.append(
                    (pts[i, j].real, pts[i, j].imag,
                     int(grid.attractor_ids[i, j]), int(grid.iterations[i, j]))
                )
        output.write_csv(rows, ("x", "y", "attractor_id", "iterations"), cfg.csv_out)


def run_basin(cfg: RunConfig) -> None:
    grid = ex.basin_grid(
        cfg.region, cfg.width, cfg.height, cfg.varphi, tol=cfg.tol, max_iter=cfg.max_iter
    )
    _emit_basin(cfg, grid)


def run_exact_basin(cfg: RunConfig) -> None:
    op = _resolve_operator(cfg)
    params = rm.MapParams(cfg.varphi)
    attractors = rm.find_attractive_cycles(params)
    grid = ex.basin_grid(
        cfg.region, cfg.width, cfg.height, cfg.varphi,
        tol=cfg.tol, max_iter=cfg.max_iter,
        attractors=attractors if attractors else None,
        exact_op=op,
    )
    _emit_basin(cfg, grid)


def run_discriminate(cfg: RunConfig) -> None:
    op = _resolve_operator(cfg) if cfg.map_kind == "exact" else None
    report = ex.discrimination_run(
        cfg.z1, cfg.z2, cfg.sigma, cfg.samples, cfg.steps,
        varphi=cfg.varphi if cfg.varphi is not None else 0.0,
        seed=cfg.seed, exact_op=op,
    )
    rows = [
        (k, report.mean_overlap[k], report.rms_deviation[k],
         int(report.samples - report.sample_counts[k]))
        for k in range(cfg.steps + 1)
    ]
    output.write_csv(rows, ("step", "mean_overlap", "rms", "failures"), cfg.out)


def run_resources(cfg: RunConfig) -> None:
    rows = []
    for n in range(cfg.iterations + 1):
        est = ex.resource_estimate(n, cfg.varphi)
        rows.append((est.iterations, est.varphi, est.pairs))
    output.write_csv(rows, ("n", "varphi", "pairs"), cfg.out)


def run_homodyne(cfg: RunConfig) -> None:
    field = CoherentFieldSpec(nbar=cfg.nbar, phi=cfg.phi_field)
    gt = cfg.gt if cfg.gt is not None else proto.default_interaction_time(cfg.nbar)
    theta_plus, theta_minus = f_state_lo_phases(cfg.theta, cfg.nbar, gt)
    qmin, qmax, count = cfg.q_range
    rows = []
    for q in np.linspace(qmin, qmax, count):
        rows.append(
            (float(q),
             homodyne_density(HomodyneSpec(cfg.theta, float(q)), field.alpha),
             homodyne_density(HomodyneSpec(theta_plus, float(q)), field.alpha),
             homodyne_density(HomodyneSpec(theta_minus, float(q)), field.alpha))
        )
    output.write_csv(rows, ("q", "density_alpha", "density_f_plus", "density_f_minus"), cfg.out)


def run_exact_op(cfg: RunConfig) -> None:
    field = CoherentFieldSpec(nbar=cfg.nbar, phi=cfg.phi_field)
    op = proto.exact_step_operator(field, gt=cfg.gt)
    proto.write_step_operator(op, cfg.out)


_RUNNERS = {
    "map": run_map,
    "cycles": run_cycles,
    "sweep": run_sweep,
    "julia": run_julia,
    "basin": run_basin,
    "exact-basin": run_exact_basin,
    "discriminate": run_discriminate,
    "resources": run_resources,
    "homodyne": run_homodyne,
    "exact-op": run_exact_op,
}


def main(argv=None) -> int:
    cfg = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        _RUNNERS[cfg.subcommand](cfg)
    except (ValueError, OSError) as exc:
        print(f"tcmap {cfg.subcommand}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
