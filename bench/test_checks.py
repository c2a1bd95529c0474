"""Each output check accepts real tcmap output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py

The outputs come from small `tcmap` commands run from ./src.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
REGION = (-2.0, 2.0, -2.0, 2.0)


def tcmap(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "tcmap.cli", *map(str, args)], check=True, env=env, cwd=ROOT)


def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="module")
def basin(tmp_path_factory):
    d = tmp_path_factory.mktemp("basin")
    tcmap("basin", "--varphi", "0.2375pi", "--res", "64x64", "--csv", d / "b.csv", "--out", d / "b.ppm")
    return d / "b.ppm", d / "b.csv"


def check_basin(ppm, csv=None):
    ideal = checks.IdealMap(0.2375 * math.pi)
    cycles = [pts for pts, _ in ideal.attracting_cycles()]
    return checks.check_basin(ppm, checks.BasinSpec(REGION, 64, 64), ideal.step, cycles, rng(), 200, csv_path=csv)


def flip_csv_cell(src, dst, row):
    lines = src.read_text().splitlines(keepends=True)
    x, y, cid, k = lines[1 + row].rstrip("\n").split(",")
    lines[1 + row] = f"{x},{y},{1 - int(cid)},{k}\n"
    dst.write_text("".join(lines))
    return 1 - int(cid), int(k)


def flip_ppm_cell(src, dst, row, cid, k):
    data = bytearray(src.read_bytes())
    offset = len(data) - 3 * 64 * 64 + 3 * row
    data[offset:offset + 3] = bytes(checks.basin_palette(np.array([cid]), np.array([k]), 97)[0])
    dst.write_bytes(bytes(data))


def test_basin_accepts_real_output(basin):
    check_basin(*basin)
    check_basin(basin[0])


def test_basin_rejects_a_flipped_cell(basin, tmp_path):
    ppm, csv = basin
    row = 64 * 10 + 13
    cid, k = flip_csv_cell(csv, tmp_path / "flip.csv", row)
    with pytest.raises(checks.CheckError, match="palette"):
        check_basin(ppm, tmp_path / "flip.csv")
    # the same cell flipped in the image as well: only the mirror symmetry gives it away
    flip_ppm_cell(ppm, tmp_path / "flip.ppm", row, cid, k)
    with pytest.raises(checks.CheckError, match="symmetric"):
        check_basin(tmp_path / "flip.ppm", tmp_path / "flip.csv")
    with pytest.raises(checks.CheckError, match="symmetric"):
        check_basin(tmp_path / "flip.ppm")


def test_operator_rejects_a_perturbed_entry(tmp_path):
    out = tmp_path / "op.csv"
    tcmap("exact-op", "--nbar", 10, "--out", out)
    dense = checks.dense_step_operator(10.0)
    checks.check_operator(out, dense)
    # <1,1|M|1,1> is exchange-invariant and a small change keeps ||M|| <= 1,
    # so only the dense reference can notice it
    lines = out.read_text().splitlines()
    cells = lines[0].split(",")
    cells[0] = repr(float(cells[0]) - 1e-6)
    lines[0] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="dense reference"):
        checks.check_operator(out, dense)


def test_operator_rejects_the_all_zero_matrix(tmp_path):
    # what `tcmap exact-op --nbar 1e4` writes while the coherent amplitudes underflow
    out = tmp_path / "zero.csv"
    out.write_text((",".join(["0"] * 8) + "\n") * 4)
    with pytest.raises(checks.CheckError, match="P_ideal"):
        checks.check_operator(out)
    with pytest.raises(checks.CheckError, match="P_ideal"):
        checks.check_operator(out, previous_distance=2.5e-4)


def test_sweep_rejects_a_wrong_multiplier(tmp_path):
    out = tmp_path / "sweep.csv"
    tcmap("sweep", "--grid", 16, "--out", out)
    checks.check_sweep(out, 16, rng(), 16)
    lines = out.read_text().splitlines()
    # rows 1 and 2 are varphi = pi/16, where +1 and -1 attract with |lambda| = |tan varphi|
    cells = lines[1].split(",")
    assert int(cells[4]) == 1 and abs(float(cells[5]) - math.tan(math.pi / 16)) < 1e-9
    cells[5] = repr(float(cells[5]) * 1.001)
    lines[1] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="misses"):
        checks.check_sweep(out, 16, rng(), 16)


def test_discrimination_rejects_a_wrong_mean(tmp_path):
    out = tmp_path / "d.csv"
    tcmap("discriminate", "--samples", 1000, "--steps", 3, "--seed", 7, "--out", out)
    checks.check_discrimination(out, -0.2, 0.2, 0.03, 1000, 3, 7)
    lines = out.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 1e-8)
    lines[3] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="step 2"):
        checks.check_discrimination(out, -0.2, 0.2, 0.03, 1000, 3, 7)


def test_metric_names_match_benchmark_json():
    import json

    import run
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [run.Op(kind, [kind], 1, lambda: None) for kind in run.THROUGHPUT]
    totals = run.Totals(ops)
    totals.setup, totals.rss = [1.0], [1.0]
    for op in ops:
        totals.walls[op].append(1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in totals.metrics().items()}
    layers = {k: u for k, (_, u) in tracing.layer_metrics(tracing.Tracer()).items()}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
