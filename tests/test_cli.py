import argparse
import ast
import cmath
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tcmap
from oracles import amplitude_step, apply_map, homogeneous_overlap, read_csv, read_ppm
from tcmap import tavis_cummings
from tcmap.cli import _build_parser, main, parse_angle, parse_complex, parse_config, parse_region
from tcmap.output import format_value
from tcmap.rational_map import ideal_coefficients, step_point


# ------------------------------------------------------------------- parsing

def test_parse_angle_accepts_pi_multiples():
    assert parse_angle("0.2375pi") == 0.2375 * math.pi
    assert parse_angle("1.666pi") == 1.666 * math.pi
    assert parse_angle("pi") == math.pi
    assert parse_angle("0.7461") == 0.7461


@pytest.mark.parametrize("text, turns", [("-pi", -1.0), ("+pi", 1.0), ("-1pi", -1.0), ("pi", 1.0)])
def test_bare_sign_pi_angles_parse(text, turns, tmp_path):
    assert parse_angle(text) == turns * math.pi
    assert parse_config(["sweep", "--phi-min", text, "--out", "x.csv"]).phi_min == turns * math.pi
    out = tmp_path / "cycles.csv"
    assert main(["cycles", "--varphi", text, "--burn", "200", "--out", str(out)]) == 0
    want = tmp_path / "want.csv"
    assert main(["cycles", "--varphi", repr(turns * math.pi), "--burn", "200", "--out", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()


def test_parse_complex():
    assert parse_complex("0.3,-0.2") == complex(0.3, -0.2)
    assert parse_complex("1.5") == 1.5 + 0j
    assert parse_complex("inf") == complex(math.inf, 0.0)


def test_parse_region_validates():
    assert parse_region("-2,2,-1,1") == (-2.0, 2.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        parse_region("2,-2,-1,1")


def test_parse_config_round_trip():
    cfg = parse_config(
        ["basin", "--varphi", "0.2375pi", "--region", "-2,2,-2,2", "--res", "800x800", "--out", "x.ppm"]
    )
    assert cfg.subcommand == "basin"
    assert cfg.varphi == 0.2375 * math.pi
    assert cfg.region == (-2.0, 2.0, -2.0, 2.0)
    assert cfg.res == (800, 800)


def test_missing_varphi_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["basin", "--out", "x.ppm"])
    assert exc.value.code == 2
    assert "--varphi" in capsys.readouterr().err


def test_degenerate_varphi_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["basin", "--varphi", "0.5pi", "--out", "x.ppm"])
    assert exc.value.code == 2
    assert "degenerate" in capsys.readouterr().err


def test_seed_env_override(monkeypatch):
    # the environment sets no seed: --seed alone does
    monkeypatch.setenv("TCMAP_SEED", "777")
    cfg = parse_config(["julia", "--varphi", "0.1", "--out", "j.csv"])
    assert cfg.seed == 12345
    cfg = parse_config(["julia", "--varphi", "0.1", "--seed", "5", "--out", "j.csv"])
    assert cfg.seed == 5


# --------------------------------------------------------------- subcommands

def test_map_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["map", "--varphi", "0", "--z", "0.2,0", "--steps", "3", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["step", "z_re", "z_im", "p_success"]
    assert len(rows) == 4
    assert abs(rows[1][1] - 0.3846153846153846) < 1e-15
    assert abs(rows[3][1] - 0.9248936482323603) < 1e-12
    assert abs(rows[1][3] - 0.28698224852071004) < 1e-14


def test_map_steps_agree_with_the_postselection_amplitudes(tmp_path):
    # each row against the amplitude oracle applied to the row before it
    out = tmp_path / "traj.csv"
    varphi = parse_angle("0.2375pi")
    assert main(["map", "--varphi", "0.2375pi", "--z", "0.2,0.1", "--steps", "40", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    for prev, row in zip(rows, rows[1:]):
        want_z, want_p = amplitude_step(complex(prev[1], prev[2]), varphi)
        assert abs(complex(row[1], row[2]) - want_z) <= 2e-15 * abs(want_z)
        assert abs(row[3] - want_p) <= 2e-15 * want_p
    # from the pole i e^{-i varphi} to infinity, then to 0
    pole = 1j * cmath.exp(-0.6j)
    assert main(["map", "--varphi", "0.6", "--z", f"{pole.real!r},{pole.imag!r}", "--steps", "2",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[1][1:3] == [math.inf, 0] and rows[2][1:3] == [0, 0]
    for z, row in ((pole, rows[1]), (complex(math.inf, 0.0), rows[2])):
        assert abs(row[3] - amplitude_step(z, 0.6)[1]) <= 2e-15 * row[3]


@pytest.mark.parametrize("angle", ["0.2375pi", "0.6", "1.666pi"])
def test_map_rows_are_the_apply_map_orbit(angle, tmp_path):
    # each row is apply_map of the row before it, bit for bit (signed zeros included), and p that
    # step's success probability
    varphi = parse_angle(angle)
    pole = 1j * cmath.exp(-1j * varphi)
    for start in ("0.2,0.1", f"{pole.real!r},{pole.imag!r}", "-1.7,0.4"):
        out = tmp_path / "traj.csv"
        assert main(["map", "--varphi", angle, "--z", start, "--steps", "40", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 41
        for prev, row in zip(rows, rows[1:]):
            z = complex(prev[1], prev[2])  # inf,0 is the point at infinity
            w = apply_map(z, varphi)
            want = (w.real, w.imag, step_point(z, ideal_coefficients(varphi))[1])
            assert [format_value(v) for v in row[1:]] == [format_value(v) for v in want]


def test_cycles_output(tmp_path):
    out = tmp_path / "cycles.csv"
    assert main(["cycles", "--varphi", "0", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 2
    values = sorted(r[3] for r in rows)
    assert abs(values[0] + 1.0) < 1e-12 and abs(values[1] - 1.0) < 1e-12
    column = {name: header.index(name) for name in ("cycle_id", "period", "abs_multiplier", "stability")}
    assert all(r[column["period"]] == 1 and r[column["stability"]] == "superattractive" for r in rows)
    # just above pi/4: two mirror-image attracting 4-cycles, four rows each
    assert main(["cycles", "--varphi", "0.251953125pi", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 8
    assert [r[column["cycle_id"]] for r in rows] == [0] * 4 + [1] * 4
    assert all(r[column["period"]] == 4 and r[column["stability"]] == "attractive" for r in rows)
    moduli = [r[column["abs_multiplier"]] for r in rows]
    assert max(moduli) - min(moduli) < 1e-12


@pytest.mark.parametrize("angle", ["0.4pi", "0.45pi", "0.6pi"])
def test_cycles_print_the_fixed_point_zero_as_zero(angle, tmp_path):
    # both critical orbits decay to the attracting fixed point 0, through subnormal labels
    # (0.4pi, 0.6pi) or to a signed zero (0.45pi); the point prints as 0,0
    out = tmp_path / "cycles.csv"
    assert main(["cycles", "--varphi", angle, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,1,0,0,0,")


def test_readme_command_lines_parse():
    # each line of the README's command-line block parses with today's subcommands and flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines() if line.strip()]
    assert len(lines) >= 11
    for argv in lines:
        assert argv[0] == "tcmap"
        assert parse_config(argv[1:]).subcommand == argv[1]


def test_sweep_row_pattern_for_phi_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    # one midpoint grid cell centered exactly on varphi = 0
    assert main(
        ["sweep", "--grid", "1", "--phi-min", "-0.5", "--phi-max", "0.5", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "varphi,abs_lambda_0,abs_lambda_plus1,abs_lambda_minus1,detected_period,detected_abs_lambda"
    assert lines[1] == "0,2,0,0,1,0"
    assert lines[2] == "0,2,0,0,1,0"


def test_sweep_without_a_usable_angle_fails(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # every grid angle is the degenerate 0.5pi, so no row could be written
    assert main(["sweep", "--grid", "3", "--phi-min", "0.5pi", "--phi-max", "0.5pi", "--out", str(out)]) == 1
    assert f"in [{0.5 * math.pi!r}, {0.5 * math.pi!r}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("phi_min, phi_max", [("-1e308", "1e308"), ("-8e307", "8e307")])
def test_sweep_refuses_an_angle_grid_that_overflows(tmp_path, capsys, phi_min, phi_max):
    # an infinite span, and a finite one whose (k + 0.5) multiples overflow
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", "4", "--phi-min", phi_min, "--phi-max", phi_max, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tcmap sweep: ")
    assert f"[{float(phi_min)!r}, {float(phi_max)!r}]" in err[0] and "overflows" in err[0]
    assert not out.exists()


def test_julia_csv_and_image(tmp_path):
    out = tmp_path / "julia.csv"
    img = tmp_path / "julia.ppm"
    code = main(
        ["julia", "--varphi", "0", "--points", "200", "--seed", "9",
         "--out", str(out), "--image", str(img), "--res", "32x32"]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 200
    assert max(abs(r[0]) for r in rows) < 1e-6  # imaginary axis
    assert read_ppm(img).shape == (32, 32, 3)


@pytest.mark.filterwarnings("error")
def test_julia_image_of_a_tiny_window(tmp_path):
    # every sample lies far outside the window, so the image is white and no position is cast to int
    img = tmp_path / "julia.ppm"
    assert main(["julia", "--varphi", "1.666pi", "--points", "50", "--region", "-1e-300,1e-300,-1e-300,1e-300",
                 "--res", "16x16", "--out", str(tmp_path / "julia.csv"), "--image", str(img)]) == 0
    assert np.all(read_ppm(img) == 255)


def test_basin_render_structure_at_phi_zero(tmp_path):
    out = tmp_path / "basin.ppm"
    assert main(
        ["basin", "--varphi", "0", "--region", "-2,2,-2,2", "--res", "5x5",
         "--max-iter", "30", "--out", str(out)]
    ) == 0
    raster = read_ppm(out)
    assert raster.shape == (5, 5, 3)
    # middle column sits on the Julia line: yellow
    assert np.all(raster[:, 2] == (255, 255, 0))
    # right half is the grey basin of +1, left half the dark basin of -1
    assert np.all(raster[:, 3:, 0] >= 60)
    assert np.all(raster[:, :2, 0] <= 40)


def test_basin_csv_dump(tmp_path):
    out = tmp_path / "basin.ppm"
    csv = tmp_path / "basin.csv"
    main(
        ["basin", "--varphi", "0", "--region", "-2,2,-2,2", "--res", "3x3",
         "--max-iter", "20", "--out", str(out), "--csv", str(csv)]
    )
    header, rows = read_csv(csv)
    assert header == ["x", "y", "attractor_id", "iterations"]
    assert len(rows) == 9
    # row-major from the top-left midpoint
    assert abs(rows[0][0] + 4.0 / 3.0) < 1e-14
    assert abs(rows[0][1] - 4.0 / 3.0) < 1e-14


def test_exact_op_dump_and_reuse(tmp_path):
    op_path = tmp_path / "op.csv"
    assert main(["exact-op", "--nbar", "10", "--out", str(op_path)]) == 0
    lines = op_path.read_text().splitlines()
    assert len(lines) == 4
    assert all(len(line.split(",")) == 8 for line in lines)

    direct = tmp_path / "direct.ppm"
    cached = tmp_path / "cached.ppm"
    file_only = tmp_path / "file-only.ppm"
    args = ["exact-basin", "--varphi", "0", "--region", "-1.5,1.5,-1.5,1.5",
            "--res", "8x8", "--max-iter", "25"]
    assert main(args + ["--nbar", "10", "--out", str(direct)]) == 0
    assert main(args + ["--nbar", "10", "--op-file", str(op_path), "--out", str(cached)]) == 0
    # the file is the operator: --nbar is not needed with it
    assert main(args + ["--op-file", str(op_path), "--out", str(file_only)]) == 0
    assert direct.read_bytes() == cached.read_bytes() == file_only.read_bytes()

    # the 17-digit entries read back to the same bits, so discriminate writes the same table too
    args = ["discriminate", "--map-kind", "exact", "--samples", "2000"]
    for name, step in (("direct", ["--nbar", "10"]), ("cached", ["--nbar", "10", "--op-file", str(op_path)]),
                       ("file-only", ["--op-file", str(op_path)])):
        assert main(args + step + ["--out", str(tmp_path / f"{name}.csv")]) == 0
    tables = [(tmp_path / f"{name}.csv").read_bytes() for name in ("direct", "cached", "file-only")]
    assert tables[0] == tables[1] == tables[2]


def test_an_op_file_is_checked_against_nbar_and_gt(tmp_path, capsys):
    # the nbar-100 operator differs from the nbar-10 one by up to 0.0273; exact-basin rendered with it
    op_path = tmp_path / "op-100.csv"
    assert main(["exact-op", "--nbar", "100", "--out", str(op_path)]) == 0
    out, csv = tmp_path / "exact.ppm", tmp_path / "d.csv"
    assert main(["exact-basin", "--varphi", "0.2375pi", "--nbar", "10", "--op-file", str(op_path),
                 "--res", "20x20", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"tcmap exact-basin: {op_path}: step operator differs by 0.0273 "
                                       "from the one --nbar 10.0 builds\n")
    assert main(["discriminate", "--map-kind", "exact", "--nbar", "100", "--gt", "1", "--op-file", str(op_path),
                 "--out", str(csv)]) == 1
    assert "op-100.csv" in capsys.readouterr().err
    assert not out.exists() and not csv.exists()
    # --gt without --nbar has nothing to be checked against
    with pytest.raises(SystemExit) as exc:
        main(["discriminate", "--map-kind", "exact", "--gt", "1", "--op-file", str(op_path), "--out", str(csv)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tcmap discriminate ") and "--gt" in err
    assert not csv.exists()


# the dark-state projector |Psi-><Psi-|, a valid step operator that sends every label to infinity
DARK_OPERATOR = ["0,0,0,0,0,0,0,0", "0,0,0.5,0,-0.5,0,0,0", "0,0,-0.5,0,0.5,0,0,0", "0,0,0,0,0,0,0,0"]


@pytest.mark.parametrize("step, reason", [
    (["--nbar", "2"], "attracting cycle through -1.3556+0.488022j lies 0.604 from the ideal attractors"),
    (["--op-file", "dark.csv"], "not a degree-2 map"),
], ids=["nbar2", "dark-op-file"])
def test_exact_basin_needs_the_ideal_attractors(tmp_path, capsys, step, reason):
    # cells are classified toward the ideal attractors, which the exact step must keep within --tol
    (tmp_path / "dark.csv").write_text("\n".join(DARK_OPERATOR) + "\n")
    out, csv = tmp_path / "exact.ppm", tmp_path / "exact.csv"
    argv = ["exact-basin", "--varphi", "0.2375pi", "--res", "20x20", "--out", str(out), "--csv", str(csv)]
    if step[0] == "--op-file":
        step = ["--op-file", str(tmp_path / step[1])]
    assert main(argv + step) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists() and not csv.exists()


def test_basin_needs_attractors_for_chaotic_angles(tmp_path, capsys):
    # basins are classified toward the critical-orbit attractors; at 0.2875pi the search finds none
    out = tmp_path / "basin.ppm"
    assert main(["basin", "--varphi", "0.2875pi", "--res", "3x3", "--out", str(out)]) == 1
    assert "no attractive cycles" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["basin"], ["exact-basin", "--nbar", "100"]], ids=["basin", "exact-basin"])
def test_a_tol_that_lets_two_attractors_claim_one_cell_exits_1(tmp_path, capsys, monkeypatch, argv):
    # --tol 1.5 around the attractors +-1 gave 945 and 655 cells where the map's oddness forces 800 each
    def never(*args, **kwargs):
        raise AssertionError("the grid ran before --tol was checked")

    monkeypatch.setattr(tcmap.rational_map, "quadratic_step", never)
    out, csv = tmp_path / "t.ppm", tmp_path / "t.csv"
    assert main(argv + ["--varphi", "0.2375pi", "--res", "40x40", "--tol", "1.5",
                        "--csv", str(csv), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"tcmap {argv[0]}: tol 1.5 is not below half the distance 2 between the attractor points "
        "1-8.5983e-16j and -1+8.30729e-16j, so both attractors would claim the cells between them"]
    assert not out.exists() and not csv.exists()


@pytest.mark.parametrize("varphi, tol", [
    ("0.7807962210337913", "1e-14"),  # reported the attracting fixed points +-1 as two 4-cycles
    ("0.9863496466104673", "1e-14"),  # lost the attracting 6-cycle and wrote an empty table
    ("1.666pi", "1e-16"),  # reported a 6-cycle of points within 7e-17 of the fixed point 0
])
def test_cycle_tol_is_refused(tmp_path, capsys, varphi, tol):
    # the period is the first return within rational_map.CLOSURE_TOL; no other tolerance is accepted
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["cycles", "--varphi", varphi, "--cycle-tol", tol, "--out", str(out)])
    assert exc.value.code == 2
    assert "--cycle-tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("region", ["-1e-323,1e-323,-1,1", "1e16,1.0000000000000004e16,-1,1"])
def test_a_region_too_narrow_for_the_resolution_exits_1(tmp_path, capsys, region):
    # 8 columns across a few ulps would share midpoints
    out, csv = tmp_path / "t.ppm", tmp_path / "t.csv"
    argv = ["basin", "--varphi", "0.2375pi", "--region", region, "--res", "8x2", "--csv", str(csv), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tcmap basin: region is too narrow")
    assert not out.exists() and not csv.exists()


def test_a_narrow_window_is_refused_before_the_step_or_the_search(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the window was checked")

    monkeypatch.setattr(tcmap.protocol, "exact_step_operator", never)
    monkeypatch.setattr(tcmap.rational_map, "attractive_cycle_batch", never)
    out, csv = tmp_path / "t.ppm", tmp_path / "t.csv"
    assert main(["exact-basin", "--varphi", "0.2375pi", "--nbar", "1e6", "--region", "-1e-323,1e-323,-1,1",
                 "--res", "8x2", "--csv", str(csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["tcmap exact-basin: region is too narrow for the resolution: "
                   "neighbouring cell midpoints coincide"]
    assert not out.exists() and not csv.exists()


def test_discriminate_outputs(tmp_path):
    out = tmp_path / "disc.csv"
    assert main(
        ["discriminate", "--sigma", "0", "--samples", "1", "--steps", "3", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["step", "mean_overlap", "rms", "failures"]
    assert abs(rows[0][1] - 0.9230769230769231) < 1e-12
    assert abs(rows[3][1] - 0.07791825883762012) < 1e-12
    assert all(r[3] == 0 for r in rows)


@pytest.mark.parametrize("z1", ["1e200,0", "inf,0"])
def test_discriminate_from_a_label_whose_square_overflows(tmp_path, z1):
    out = tmp_path / "disc.csv"
    assert main(["discriminate", "--z1", z1, "--z2", "0.5,0", "--sigma", "0", "--samples", "1", "--steps", "1",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0,0.44721359549995793,0,0"


def test_discriminate_reads_overflowed_noise_as_infinity(tmp_path):
    # sigma 1e308 overflows some draws to inf; the run must not meet a 0 * inf in building its labels
    out = tmp_path / "disc.csv"
    argv = ["discriminate", "--sigma", "1e308", "--samples", "5", "--seed", "12345", "--out", str(out)]
    src = str(Path(tcmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "tcmap.cli", *argv], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr
    noise = np.random.default_rng(12345).normal(0.0, 1e308, size=(4, 5))
    assert not np.isfinite(noise).all()
    za, zb = (np.array([complex(z + x, y) for x, y in zip(noise[i], noise[i + 1])]) for z, i in ((-0.2, 0), (0.2, 2)))
    ov = homogeneous_overlap(za, zb)  # reads each non-finite label as infinity
    mean = float(np.mean(ov))
    assert read_csv(out)[1][0] == [0, mean, float(np.sqrt(np.mean((ov - mean) ** 2))), 0]


def test_every_flag_has_help():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        for action in parser._actions:
            assert action.help, (name, action.option_strings)
            if action.default not in (None, argparse.SUPPRESS):
                assert "default" in action.help, (name, action.option_strings)


@pytest.mark.parametrize("argv", [["exact-op"], ["discriminate", "--map-kind", "exact"]])
def test_running_out_of_memory_is_a_runtime_error(tmp_path, capsys, monkeypatch, argv):
    # the error numpy raised when the Fock amplitudes of nbar 1e9, all levels from 0, did not fit;
    # nothing is allocated here
    message = "Unable to allocate 7.45 GiB for an array with shape (1000222459,) and data type int64"

    def no_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(tcmap.tavis_cummings, "coherent_state_coefficients", no_memory)
    out = tmp_path / "out.csv"
    assert main(argv + ["--nbar", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"tcmap {argv[0]}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["basin", "--varphi", "0.2375pi", "--res", "2x2", "--max-iter", str(10**20)],  # np.full of the counts
    ["cycles", "--varphi", "0.2375pi", "--max-period", str(10**20)],  # the burn's history deque
    ["sweep", "--grid", "4", "--max-period", str(10**20)],
])
def test_a_count_too_large_for_a_c_integer_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tcmap {argv[0]} ")
    assert f"error: argument {argv[-2]}: '{argv[-1]}' is not an int >= " in err and str(sys.maxsize - 1) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["basin", "--varphi", "0", "--res", "4x4", "--out", "same", "--csv", "same"],
    ["julia", "--varphi", "0", "--points", "5", "--res", "4x4", "--out", "j", "--image", "./j"],
])
def test_two_outputs_on_one_path_are_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tcmap {argv[0]} ") and f"error: argument {argv[-2]}: " in err
    assert not list(tmp_path.iterdir())


def test_the_environment_sets_no_seed(tmp_path):
    # TCMAP_SEED once set the default --seed; now every seeded command reads only its flags
    src = str(Path(tcmap.__file__).resolve().parents[1])
    runs = {"julia": ["--varphi", "1.666pi", "--points", "50"], "discriminate": ["--samples", "1000"]}
    for seed_env in (None, "777", "abc"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("TCMAP_SEED", None)
        if seed_env is not None:
            env["TCMAP_SEED"] = seed_env
        for name, argv in runs.items():
            out = tmp_path / f"{name}-{seed_env}.csv"
            res = subprocess.run([sys.executable, "-m", "tcmap.cli", name, *argv, "--out", str(out)], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert (res.returncode, res.stderr) == (0, "")
            assert out.read_bytes() == (tmp_path / f"{name}-None.csv").read_bytes()


@pytest.mark.parametrize("argv, batches", [
    (["basin"], [1]),
    (["exact-basin", "--nbar", "10"], [2]),  # the ideal map's and the exact step's attractors in one burn
])
def test_one_critical_orbit_burn_per_basin(tmp_path, monkeypatch, argv, batches):
    calls = []
    batch = tcmap.rational_map.attractive_cycle_batch
    monkeypatch.setattr(tcmap.rational_map, "attractive_cycle_batch",
                        lambda maps, **kw: calls.append(len(maps)) or batch(maps, **kw))
    assert main(argv + ["--varphi", "0.2375pi", "--res", "8x8", "--out", str(tmp_path / "b.ppm")]) == 0
    assert calls == batches


def test_importing_the_cli_loads_no_thread_pool():
    # the blocked runs import concurrent.futures only when they start threads
    code = "import sys, tcmap.cli; print('concurrent.futures' in sys.modules)"
    src = str(Path(tcmap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def _basin_bytes(tmp_path, name):
    out, csv = tmp_path / f"{name}.ppm", tmp_path / f"{name}.csv"
    assert main(["basin", "--varphi", "0.2375pi", "--res", "24x16", "--csv", str(csv), "--out", str(out)]) == 0
    return out.read_bytes(), csv.read_bytes()


@pytest.fixture
def fresh_heap_setup():
    # the allocator set-up runs once per process; let the test see it run again, then leave it to run anew
    tcmap.cli._keep_freed_heap.cache_clear()
    yield
    tcmap.cli._keep_freed_heap.cache_clear()


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library], ids=["no-mallopt", "oserror"])
def test_cli_runs_without_mallopt(tmp_path, monkeypatch, fresh_heap_setup, cdll):
    want = _basin_bytes(tmp_path, "tuned")
    tcmap.cli._keep_freed_heap.cache_clear()
    monkeypatch.setattr(tcmap.cli.ctypes, "CDLL", cdll)
    assert _basin_bytes(tmp_path, "plain") == want


def test_the_allocator_is_set_up_once_per_process(tmp_path, monkeypatch, fresh_heap_setup):
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(tcmap.cli.ctypes, "CDLL", lambda name: calls.append(name) or libc)
    for name in ("first", "second"):
        _basin_bytes(tmp_path, name)
    # glibc's M_MMAP_THRESHOLD (-3) to 4 MiB and M_TRIM_THRESHOLD (-1) to 64 MiB
    assert calls == [None, (-3, 4 << 20), (-1, 64 << 20)]


def test_discriminate_exact_requires_nbar(capsys):
    with pytest.raises(SystemExit):
        parse_config(["discriminate", "--map-kind", "exact", "--out", "d.csv"])
    err = capsys.readouterr().err
    assert err.startswith("usage: tcmap discriminate ") and "--nbar" in err
    with pytest.raises(SystemExit):
        parse_config(["exact-basin", "--varphi", "0", "--out", "e.ppm"])
    err = capsys.readouterr().err
    assert err.startswith("usage: tcmap exact-basin ") and "--nbar" in err


def test_resources_table(tmp_path, capsys):
    out = tmp_path / "res.csv"
    assert main(["resources", "--varphi", "0", "--n", "3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [int(r[2]) for r in rows] == [1, 8, 64, 512]
    # pair counts past the float range are a runtime error, not a traceback
    for varphi in ("0", "0.49pi"):
        big = tmp_path / f"res-{varphi}.csv"
        assert main(["resources", "--varphi", varphi, "--n", "400", "--out", str(big)]) == 1
        assert "tcmap resources: " in capsys.readouterr().err
        assert not big.exists()


def test_homodyne_table(tmp_path):
    out = tmp_path / "hd.csv"
    assert main(
        ["homodyne", "--nbar", "4", "--theta", "0.5pi", "--q-range", "-8,8,161", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["q", "density_alpha", "density_f_plus", "density_f_minus"]
    # alpha = 2 real, theta = pi/2: quadrature mean zero, peak at q = 0
    mid = rows[80]
    assert abs(mid[0]) < 1e-12
    assert abs(mid[1] - 1.0 / math.sqrt(math.pi)) < 1e-12
    # integrals over the emitted grid stay normalized
    qs = np.array([r[0] for r in rows])
    for col in (1, 2, 3):
        vals = np.array([r[col] for r in rows])
        assert abs(np.trapezoid(vals, qs) - 1.0) < 1e-6


def test_homodyne_builds_no_fock_cutoff(tmp_path, monkeypatch):
    # the densities need alpha only; a cutoff at nbar = 1e12 would take seconds and about 1 GB
    def no_cutoff(nbar):
        raise AssertionError("homodyne asked for a Fock cutoff")

    monkeypatch.setattr(tavis_cummings, "default_truncation", no_cutoff)
    assert main(["homodyne", "--nbar", "1e12", "--q-range", "-6,6,11", "--out", str(tmp_path / "hd.csv")]) == 0


def test_homodyne_f_columns_stay_finite_where_2_gt_overflows(tmp_path):
    out = tmp_path / "hd.csv"
    assert main(["homodyne", "--nbar", "10", "--gt", "1e308", "--q-range", "-1,1,3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(math.isfinite(v) for row in rows for v in row)


def test_homodyne_refuses_a_phase_shift_that_overflows(tmp_path, capsys):
    out = tmp_path / "hd.csv"
    assert main(["homodyne", "--nbar", "0", "--gt", "1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("tcmap homodyne: ") and "overflow" in err[0]
    assert not out.exists()


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["discriminate", "--sigma", "0.03", "--samples", "300", "--steps", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ja = tmp_path / "ja.csv"
    jb = tmp_path / "jb.csv"
    assert main(["julia", "--varphi", "1.666pi", "--points", "100", "--out", str(ja)]) == 0
    assert main(["julia", "--varphi", "1.666pi", "--points", "100", "--out", str(jb)]) == 0
    assert ja.read_bytes() == jb.read_bytes()


def test_runner_reports_io_errors(tmp_path, capsys):
    code = main(["map", "--varphi", "0", "--z", "0.2", "--out", str(tmp_path / "x" / "y.csv")])
    assert code == 1
    assert "map" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["basin", "--varphi", "0.2375pi", "--res", "8x8", "--tol", "nan"], "--tol", None),
        (["basin", "--varphi", "0.2375pi", "--res", "8x8", "--region", "-inf,2,-2,2"], "--region", None),
        (["exact-op", "--nbar", "10", "--gt", "nan"], "--gt", None),
        (["exact-op", "--nbar", "inf"], "--nbar", None),
        (["discriminate", "--samples", "10", "--sigma", "nan"], "--sigma", None),
        (["discriminate", "--samples", "10", "--z1", "nan"], "--z1", None),
        (["discriminate", "--samples", "10"], "--seed", "abc"),
        (["cycles", "--varphi", "0.2375pi", "--cycle-tol", "-1"], "--cycle-tol", None),
        (["cycles", "--varphi", "0.2375pi", "--max-period", "0"], "--max-period", None),
        (["sweep", "--grid", "4", "--phi-min", "abc"], "--phi-min", None),
        (["homodyne", "--nbar", "4", "--q-range", "-8,8,x"], "--q-range", None),
        (["discriminate", "--samples", "10", "--nbar", "10"], "--nbar", None),
        # a finite region whose width or height overflows a float
        (["basin", "--varphi", "0.2375pi", "--res", "4x4", "--region", "-1e308,1e308,-1,1"], "--region", None),
        (["julia", "--varphi", "0.2375pi", "--region", "-1,1,-1e308,1e308"], "--region", None),
    ],
)
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv, flag, value):
    # value, when set, is passed after flag; otherwise argv holds the bad value
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ([flag, value] if value is not None else []) + ["--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_negative_burn_is_a_usage_error(tmp_path, capsys):
    for sub in (["cycles", "--varphi", "0.2375pi"], ["sweep", "--grid", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(sub + ["--burn", "-5", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "--burn" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "rows",
    [
        ["nan,0,0,0,0,0,0,0", "0,0,inf,0,0,0,0,0", "1e300,0,0,0,0,0,0,0", "0,0,0,0,0,0,0,0"],
        # twice the ideal postselection projector at phi = 0: norm 2
        ["1,0,0,0,0,0,-1,0", "0,0,1,0,-1,0,0,0", "0,0,-1,0,1,0,0,0", "-1,0,0,0,0,0,1,0"],
    ],
)
def test_op_file_that_is_no_step_operator_exits_1(tmp_path, capsys, rows):
    op_path = tmp_path / "bad-op.csv"
    op_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "d.csv"
    code = main(["discriminate", "--map-kind", "exact", "--op-file", str(op_path), "--out", str(out)])
    assert code == 1
    assert "bad-op.csv" in capsys.readouterr().err
    assert not out.exists()


def test_exact_discrimination_survives_large_photon_numbers(tmp_path):
    out = tmp_path / "d.csv"
    assert main(
        ["discriminate", "--map-kind", "exact", "--nbar", "2000", "--samples", "1000", "--out", str(out)]
    ) == 0
    _, rows = read_csv(out)
    assert all(r[3] == 0 for r in rows)
    assert rows[-1][1] < rows[0][1]


@pytest.mark.parametrize(
    "rows, reason",
    [
        (["1,0,0"], "expected 8 numbers per line, got 3"),
        (["x,0,0,0,0,0,0,0"], "could not convert string to float: 'x'"),
        (["0,0,0,0,0,0,0,0"], "expected 4 lines, got 1"),
    ],
)
def test_malformed_op_file_exits_1_and_names_it(tmp_path, capsys, rows, reason):
    op_path = tmp_path / "bad-op.csv"
    op_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "d.csv"
    code = main(["discriminate", "--map-kind", "exact", "--op-file", str(op_path), "--out", str(out)])
    assert code == 1
    assert f"{op_path}: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_the_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # `bench/run.py --trace 1` wraps package functions by name and binds their parameters
    # by name, so each one must still exist and a traced run must fill the layer metrics
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    op = str(tmp_path / "op.csv")
    try:
        tracing.install(tracer, tcmap)
        assert tcmap.cli.main is not main
        for argv in (
            ["basin", "--varphi", "0.2375pi", "--res", "8x8", "--csv", str(tmp_path / "b.csv")],
            ["exact-op", "--nbar", "10"],
            ["exact-basin", "--varphi", "0.2375pi", "--res", "8x8", "--op-file", op],
            ["discriminate", "--samples", "10", "--steps", "2"],
            ["discriminate", "--map-kind", "exact", "--op-file", op, "--samples", "10", "--steps", "3"],
            ["sweep", "--grid", "8", "--burn", "100"],
            ["cycles", "--varphi", "0.2375pi"],
        ):
            assert tcmap.cli.main(argv + ["--out", op if argv[0] == "exact-op" else str(tmp_path / "out")]) == 0
    finally:
        tracer.restore()
    assert tcmap.cli.main is main
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
    assert metrics["experiments.basin_grid_s"] > 0
    assert metrics["experiments.phi_sweep_s"] > 0
    assert metrics["rational_map.find_attractive_cycles_calls"] == 1
    assert metrics["tavis_cummings.poisson_amplitudes_calls"] > 0
    assert metrics["protocol.exact_step_operator_s"] > 0
    assert metrics["experiments.discrimination_sample_steps"] == 10 * 2 + 10 * 3
    assert metrics["output.ppm_bytes"] > 0
    assert metrics["output.csv_rows"] > 0


def _definitions_without_a_caller(root: Path) -> list[str]:
    """Each top-level function, class and method of src/tcmap that no other code there names and
    that bench/tracing.py does not wrap, as module.name or module.Class.method.

    A name counts where it is read outside the definition's own body, as a name or an attribute (a
    method only as an attribute); attributes of modules bound by a plain `import` (np.linalg.norm)
    belong to other packages.
    """
    tracing = root / "bench" / "tracing.py"
    wrapped = set()
    if tracing.exists():  # the tracer looks these up by name
        wrapped = {node.args[1].value for node in ast.walk(ast.parse(tracing.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "wrap" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)}
    units, definitions = [], []  # the code that may name a definition; (label, name, its own unit)
    for path in sorted((root / "src" / "tcmap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        external = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        for node in tree.body:
            parts = [[node]]
            if isinstance(node, ast.ClassDef):  # the class's own lines, then each method apart
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                head = node.bases + node.keywords + node.decorator_list + [s for s in node.body if s not in methods]
                parts = [head] + [[m] for m in methods]
                definitions += [(f"{path.stem}.{node.name}.{m.name}", m.name, len(units) + 1 + i, 1)
                                for i, m in enumerate(methods) if not m.name.startswith("__")]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{path.stem}.{node.name}", node.name, len(units), 0))
            for part in parts:
                names, attrs = set(), set()
                for ref in (ref for top in part for ref in ast.walk(top)):
                    if isinstance(ref, ast.Name):
                        names.add(ref.id)
                    elif isinstance(ref, ast.Attribute):
                        base = ref.value
                        while isinstance(base, ast.Attribute):
                            base = base.value
                        if not (isinstance(base, ast.Name) and base.id in external):
                            attrs.add(ref.attr)
                units.append((names | attrs, attrs))
    return [label for label, name, own, kind in definitions
            if label != "cli.main" and name not in wrapped
            and not any(name in unit[kind] for i, unit in enumerate(units) if i != own)]


def test_the_package_holds_only_code_that_commands_or_the_benchmark_tracer_run():
    # a helper that only tests call belongs in tests/oracles.py
    unused = _definitions_without_a_caller(Path(__file__).resolve().parents[1])
    assert not unused, f"no package code calls {', '.join(unused)}"
