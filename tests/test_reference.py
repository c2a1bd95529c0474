"""CLI outputs held against stored sha256 digests.

Each command runs in process and its files must hash to the digests recorded
before the basin runners were merged into one. These commands write the same
bytes with and without FMA in numpy's dispatch; `sweep` and `discriminate`
do not (their last digits move), so they are left out.
"""

import hashlib

import pytest

from tcmap.cli import main

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
    (["cycles", "--varphi", "1.666pi", "--out", "c.csv"],
     {"c.csv": "66279ca8624d16610fc35e21084fe8a10954e72afcf0f54641d52f25f87b84fa"}),
], ids=["basin-120-csv", "basin-4-cycle", "exact-basin-nbar10", "exact-op-100", "cycles-1.666pi"])
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
