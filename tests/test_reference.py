"""CLI outputs held against stored references.

Each digest command runs in process and its files must hash to the digests
recorded before the basin runners were merged into one. These commands write
the same bytes with and without FMA in numpy's dispatch. `sweep` does not
(the last digits of its multipliers move), so its table is stored in
tests/reference/ and held to tolerances instead; `discriminate` is left out.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcmap
from tcmap.cli import main
from tcmap.output import read_csv

SWEEP_64 = Path(__file__).parent / "reference" / "sweep-64.csv"
# numpy's dispatch without the targets that carry FMA: baseline x86-64-v2
NO_FMA = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"

EXACT_BASIN_10 = "29a059a5992e3b36503086b9d02cd2d900ba36c124b916dd06dc212b20fb2a93"
EXACT_OP_10 = "6eb3d4a232052853bacd90d4ad46af3c51c97e28ade4f5d240c479cece842824"


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
    (["cycles", "--varphi", "1.666pi", "--out", "c.csv"],
     {"c.csv": "66279ca8624d16610fc35e21084fe8a10954e72afcf0f54641d52f25f87b84fa"}),
    (["homodyne", "--nbar", "10", "--theta", "0.5pi", "--out", "q.csv"],
     {"q.csv": "3d53678dc4652e56790f21ce97fdbd355586a1d6923b82a635eefcac48ff3fba"}),
], ids=["basin-120-csv", "basin-4-cycle", "exact-basin-nbar10", "exact-op-100", "exact-op-phase-time",
        "cycles-1.666pi", "homodyne-readme"])
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
    """The sweep gate: angles to 1e-12, the analytic moduli to 1e-12 relative, periods
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


def test_sweep_matches_the_stored_table(tmp_path):
    """`tcmap sweep --grid 64 --out tests/reference/sweep-64.csv` regenerates the table."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", "64", "--out", str(out)]) == 0
    assert_sweep_matches_reference(out)


def test_sweep_matches_the_stored_table_without_fma(tmp_path):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_FMA)
    probe = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:  # a numpy build or CPU without these dispatch targets
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={NO_FMA!r}: {probe.stderr.strip().splitlines()[-1]}")
    src = str(Path(tcmap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "sweep.csv"
    res = subprocess.run([sys.executable, "-m", "tcmap.cli", "sweep", "--grid", "64", "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert_sweep_matches_reference(out)
