"""CLI outputs held against stored references.

Each digest command runs in process and its files must hash to the digests
recorded at the commit before the code they cover last changed. These
commands write the same bytes with and without FMA in numpy's dispatch.
`sweep` and `discriminate` do not (the last digits of multipliers and
overlaps move), so their tables are stored in tests/reference/ and held to
tolerances instead, in process and in a child process without FMA.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcmap
from oracles import read_csv
from tcmap.cli import main

REFERENCE = Path(__file__).parent / "reference"
SWEEP_64 = REFERENCE / "sweep-64.csv"
# numpy's dispatch without the targets that carry FMA: baseline x86-64-v2
NO_FMA = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"

EXACT_BASIN_10 = "29a059a5992e3b36503086b9d02cd2d900ba36c124b916dd06dc212b20fb2a93"
EXACT_OP_10 = "6eb3d4a232052853bacd90d4ad46af3c51c97e28ade4f5d240c479cece842824"
CYCLES_1_666PI = "66279ca8624d16610fc35e21084fe8a10954e72afcf0f54641d52f25f87b84fa"
JULIA_1_666PI = {"j.csv": "961bda19d07ef47de7ed7338297d8c3022ce68a99a96fb6566242195eb896f4d",
                 "j.ppm": "1a138e4533cb4d49c86c97b515902787a039a3eb42bfe0d01216e94a16a08c25"}
# the README's two discriminate lines, each stored as the table it writes
DISCRIMINATE = {
    "discriminate-readme.csv": ["discriminate", "--sigma", "0.03", "--samples", "10000", "--steps", "7"],
    "discriminate-exact-10.csv": ["discriminate", "--map-kind", "exact", "--nbar", "10", "--sigma", "0"],
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# each file name in argv is written under tmp_path and must hash to its digest
@pytest.mark.parametrize("argv, digests", [
    (["basin", "--varphi", "0.2375pi", "--res", "120x120", "--csv", "b.csv", "--out", "b.ppm"],
     {"b.ppm": "a050b9afbbac897c25002582f1f8d147cbecfdbef61519002a4acd66ecbcd4d4",
      "b.csv": "fdfaa0d9b594c98c557424d25fa80940a441098b88968ab9db727487c6e0ab46"}),
    (["basin", "--varphi", "0.251953125pi", "--res", "100x100", "--out", "b.ppm"],
     {"b.ppm": "ac8544821261830feae0b7d6aeb193e5728d8a2a442f928fab9f301689a492f8"}),
    (["exact-basin", "--varphi", "0.2375pi", "--nbar", "10", "--res", "100x100", "--out", "e.ppm"],
     {"e.ppm": EXACT_BASIN_10}),
    (["exact-op", "--nbar", "100", "--out", "op.csv"],
     {"op.csv": "693e0d324b08cf59521dcfd448209ab90d3dc4db9c0e2c023a043ca3790752d2"}),
    (["exact-op", "--nbar", "10", "--phi", "0.3pi", "--gt", "2.5", "--out", "op.csv"],
     {"op.csv": "801aa7ceeef1f55529d2a2a9abfc72e539d8865ff48088d3955884393453a6e3"}),
    (["cycles", "--varphi", "1.666pi", "--out", "c.csv"], {"c.csv": CYCLES_1_666PI}),
    (["homodyne", "--nbar", "10", "--theta", "0.5pi", "--out", "q.csv"],
     {"q.csv": "3d53678dc4652e56790f21ce97fdbd355586a1d6923b82a635eefcac48ff3fba"}),
    (["map", "--varphi", "0", "--z", "0.2,0", "--steps", "5", "--out", "traj.csv"],
     {"traj.csv": "d1026e565a673ef0bb355fb5c6378ee7483aa299c1a23c67b5c60d321b699add"}),
    (["julia", "--varphi", "1.666pi", "--points", "1000", "--out", "j.csv", "--image", "j.ppm"], JULIA_1_666PI),
    # the same angle less 2pi: every angle is reduced mod 2pi before use
    (["julia", "--varphi", "-0.334pi", "--points", "1000", "--out", "j.csv", "--image", "j.ppm"], JULIA_1_666PI),
    (["cycles", "--varphi", "-0.334pi", "--out", "c.csv"], {"c.csv": CYCLES_1_666PI}),
    (["resources", "--varphi", "0", "--n", "3", "--out", "pairs.csv"],
     {"pairs.csv": "6576775b0c23a612be9a0fe0e0a14859ab9ceab7fcf84b51e994fea399b484e8"}),
    (["resources", "--varphi", "-0.25pi", "--out", "pairs.csv"],
     {"pairs.csv": "9c91fad5e8f7f3508e1e431c32a61d9f4cc55757fd6e021486fdb1613a7f21ed"}),
], ids=["basin-120-csv", "basin-4-cycle", "exact-basin-nbar10", "exact-op-100", "exact-op-phase-time",
        "cycles-1.666pi", "homodyne-readme", "map-readme", "julia-1.666pi", "julia--0.334pi", "cycles--0.334pi",
        "resources-readme", "resources--0.25pi"])
def test_output_digests(tmp_path, argv, digests):
    assert main([str(tmp_path / a) if a in digests else a for a in argv]) == 0
    assert {name: _digest(tmp_path / name) for name in digests} == digests


def test_exact_basin_from_a_dumped_operator(tmp_path):
    op = tmp_path / "op.csv"
    assert main(["exact-op", "--nbar", "10", "--out", str(op)]) == 0
    assert _digest(op) == EXACT_OP_10
    out = tmp_path / "out.ppm"
    argv = ["exact-basin", "--varphi", "0.2375pi", "--op-file", str(op), "--res", "100x100", "--out", str(out)]
    assert main(argv) == 0
    assert _digest(out) == EXACT_BASIN_10


def test_exact_basin_refusal_line(tmp_path, capsys):
    out = tmp_path / "out.ppm"
    argv = ["exact-basin", "--varphi", "0.2375pi", "--nbar", "2", "--res", "100x100", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "tcmap exact-basin: the exact step's attracting cycle through -1.3556+0.488022j lies 0.604 "
        "from the ideal attractors, beyond --tol 0.1\n")
    assert not out.exists()


def assert_sweep_matches_reference(path):
    """The sweep gate: angles to 1e-12, the fixed-point moduli to 1e-12 relative, periods
    exactly and the detected |multiplier| to 1e-9; raw orbit bits are not compared."""
    header, rows = read_csv(path)
    want_header, want_rows = read_csv(SWEEP_64)
    assert header == want_header
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        varphi, *moduli, period, abs_lambda = got
        assert abs(varphi - want[0]) <= 1e-12
        assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(moduli, want[1:4]))
        assert period == want[4]
        assert abs(abs_lambda - want[5]) <= 1e-9


def assert_discrimination_matches_reference(path, name):
    """The discriminate gate: steps and failures exactly, the mean overlap and rms to 1e-15 absolute."""
    header, rows = read_csv(path)
    want_header, want_rows = read_csv(REFERENCE / name)
    assert header == want_header
    assert len(rows) == len(want_rows)
    for (step, mean, rms, failures), want in zip(rows, want_rows):
        assert (step, failures) == (want[0], want[3])
        assert abs(mean - want[1]) <= 1e-15
        assert abs(rms - want[2]) <= 1e-15


def run_without_fma(argv):
    """Run `tcmap argv` in a child process under numpy's dispatch without FMA; skip where numpy rejects it."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_FMA)
    probe = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:  # a numpy build or CPU without these dispatch targets
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={NO_FMA!r}: {probe.stderr.strip().splitlines()[-1]}")
    src = str(Path(tcmap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "tcmap.cli", *argv], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr


def test_sweep_matches_the_stored_table(tmp_path):
    """`tcmap sweep --grid 64 --out tests/reference/sweep-64.csv` regenerates the table."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", "64", "--out", str(out)]) == 0
    assert_sweep_matches_reference(out)


def test_sweep_matches_the_stored_table_without_fma(tmp_path):
    out = tmp_path / "sweep.csv"
    run_without_fma(["sweep", "--grid", "64", "--out", str(out)])
    assert_sweep_matches_reference(out)


@pytest.mark.parametrize("name", sorted(DISCRIMINATE))
def test_discriminate_matches_the_stored_table(tmp_path, name):
    """Each argv in DISCRIMINATE with `--out tests/reference/<name>` regenerates its table."""
    out = tmp_path / name
    assert main(DISCRIMINATE[name] + ["--out", str(out)]) == 0
    assert_discrimination_matches_reference(out, name)


@pytest.mark.parametrize("name", sorted(DISCRIMINATE))
def test_discriminate_matches_the_stored_table_without_fma(tmp_path, name):
    out = tmp_path / name
    run_without_fma(DISCRIMINATE[name] + ["--out", str(out)])
    assert_discrimination_matches_reference(out, name)
