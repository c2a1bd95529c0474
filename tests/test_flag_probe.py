"""Flag-space probe: edge values of every flag of every subcommand, run in process.

Each case sets one flag of a small, fast command line to an edge value (0, tiny, huge, just
inside and just outside each bound) and checks the contract of the exit code it gets:

* 0: every output parses, an image has the asked size, and every documented column is finite,
  apart from `map`'s row-0 `p_success` and the point at infinity written as `inf,0`;
* 1: no file is written and stderr holds one line;
* 2: the subcommand's usage message, naming the flag, and no file.

Huge counts appear only where the work does not grow with them, so `--nbar 1e9`, the largest
accepted value, is not run here: its operator takes seconds and hundreds of MB to build.
"""

import math

import pytest

from oracles import read_csv, read_ppm
from tcmap.cli import main
from tcmap.protocol import MAX_NBAR, exact_step_operator, max_interaction_time, write_step_operator

HUGE = str(10**20)  # more than a C integer holds: a count refuses it, --seed takes it
OUTSIDE_NBAR = repr(MAX_NBAR * (1 + 2**-52))
GT_LIMIT = max_interaction_time(10.0)

# a small command line per subcommand; the probe replaces or appends one flag
BASE = {
    "map": ["--varphi", "0.2375pi", "--z", "0.2,0", "--steps", "3"],
    "cycles": ["--varphi", "0.2375pi", "--burn", "300"],
    "sweep": ["--grid", "4", "--burn", "300"],
    "julia": ["--varphi", "1.666pi", "--points", "30", "--res", "8x6", "--image", "julia.ppm"],
    "basin": ["--varphi", "0.2375pi", "--res", "6x4", "--max-iter", "20", "--csv", "basin.csv"],
    "exact-basin": ["--varphi", "0.2375pi", "--res", "6x4", "--max-iter", "20", "--csv", "basin.csv",
                    "--nbar", "10"],
    "discriminate": ["--samples", "20", "--steps", "2"],
    "exact-discriminate": ["--samples", "20", "--steps", "2", "--map-kind", "exact", "--nbar", "10"],
    "resources": ["--varphi", "0", "--n", "3"],
    "homodyne": ["--nbar", "10", "--q-range", "-6,6,5"],
    "exact-op": ["--nbar", "10"],
}

ANGLE = [("0", 0), ("5e-324", 0), ("-1e300pi", 0), ("1e308pi", 2), ("nan", 2),
         ("0.5pi", 2), (repr(math.pi / 2 + 5e-13), 2), (repr(math.pi / 2 + 2e-12), None)]
PHASE = [("0", 0), ("5e-324", 0), ("-1e300", 0), ("inf", 2), ("nan", 2)]
POINT = [("0", 0), ("5e-324,-5e-324", 0), ("1e300,0", 0), ("-1e308,1e308", 0), ("inf", 0),
         ("nan", 2), ("1,2,3", 2)]
REGION = [("-1e-300,1e-300,-1e-300,1e-300", 0), ("-1e307,1e307,-1e307,1e307", 0),
          ("-1e308,1e308,-1,1", 2), ("1,1,-1,1", 2), ("-1e-323,1e-323,-1,1", 1), ("-1,1,-1", 2)]
RES = [("1x1", 0), ("0x1", 2), ("1x0", 2), ("8", 2)]
NBAR = [("0", 0), ("5e-324", 0), ("1e-300", 0), ("1e3", 0), (OUTSIDE_NBAR, 2), ("-5e-324", 2), ("inf", 2)]
GT = [("0", 0), ("5e-324", 0), ("-1e3", 0), (repr(GT_LIMIT), 0), (repr(-GT_LIMIT), 0),
      (repr(GT_LIMIT * (1 + 2**-50)), 2), ("1e20", 2), ("nan", 2)]
SEED = [("0", 0), (HUGE, 0), ("-1", 2), ("1.5", 2)]
# operator files the test writes first; the base command lines pass --nbar 10
OP_FILE = [("ops/op-10.csv", 0), ("ops/op-100.csv", 1), ("ops/missing.csv", 1)]

# (command, flag, value, expected exit code, or None where any code is allowed)
CASES = (
    [("map", "--varphi", v, c) for v, c in ANGLE]
    + [("map", "--z", v, c) for v, c in POINT]
    + [("map", "--steps", v, c) for v, c in [("0", 0), ("1", 0), ("-1", 2), ("x", 2)]]
    + [("cycles", "--varphi", v, c) for v, c in ANGLE]
    + [("cycles", "--burn", v, c) for v, c in [("0", 0), ("1", 0), (HUGE, 2), ("-1", 2)]]
    + [("cycles", "--max-period", v, c) for v, c in [("1", 0), ("0", 2), (HUGE, 2)]]
    + [("cycles", "--cycle-tol", "1e-8", 2)]
    + [("sweep", "--grid", v, c) for v, c in [("1", 0), ("0", 2)]]
    + [("sweep", "--phi-min", v, c) for v, c in [("0", 0), ("-1e300", 0), ("-1e308", 1), ("0.5pi", 0), ("inf", 2)]]
    + [("sweep", "--phi-max", v, c) for v, c in [("0", 0), ("5e-324", 0), ("1e300", 0), ("nan", 2)]]
    + [("sweep", "--burn", v, c) for v, c in [("0", 0), ("-1", 2)]]
    + [("sweep", "--max-period", v, c) for v, c in [("1", 0), ("0", 2), (HUGE, 2)]]
    + [("julia", "--varphi", v, c) for v, c in ANGLE]
    + [("julia", "--points", v, c) for v, c in [("0", 0), ("1", 0), (HUGE, 2), ("-1", 2)]]
    + [("julia", "--seed", v, c) for v, c in SEED]
    + [("julia", "--region", v, c) for v, c in REGION if c != 1]
    # an image far beyond the address space: its allocation fails before any file is written
    + [("julia", "--res", v, c) for v, c in RES + [("100000000x100000000", 1)]]
    # exact-basin exits 1 where the exact step's attractors are not the ideal map's
    + [(cmd, flag, v, None if c == 0 and cmd == "exact-basin" else c) for cmd in ("basin", "exact-basin")
       for flag, values in [
        ("--varphi", ANGLE), ("--region", REGION), ("--res", RES),
        # half the distance between the attractors +-1.0000000000000004 is the largest tol refused
        ("--tol", [("5e-324", 0), ("1", 0), ("1.0000000000000004", 1), ("1e300", 1), ("0", 2), ("inf", 2)]),
        ("--max-iter", [("1", 0), (HUGE, 2), ("0", 2)])] for v, c in values]
    + [("exact-basin", "--nbar", v, None if c == 0 else c) for v, c in NBAR if v != "1e3"]  # a long burn
    + [("exact-basin", "--gt", v, None if c == 0 else c) for v, c in GT]
    + [("exact-basin", "--op-file", v, c) for v, c in OP_FILE]
    + [("discriminate", flag, v, c) for flag, values in [
        ("--varphi", ANGLE), ("--z1", POINT), ("--z2", POINT),
        ("--sigma", [("0", 0), ("5e-324", 0), ("1e308", 0), ("-5e-324", 2), ("inf", 2)]),
        ("--samples", [("1", 0), ("0", 2), (HUGE, 2)]),
        ("--steps", [("0", 0), ("-1", 2)]),
        ("--seed", SEED),
        ("--map-kind", [("ideal", 0), ("dense", 2)]),
        ("--nbar", [("10", 2)]), ("--gt", [("1", 2)]), ("--op-file", [("ops/op-10.csv", 2)])] for v, c in values]
    + [("exact-discriminate", "--nbar", v, c) for v, c in NBAR]
    + [("exact-discriminate", "--gt", v, c) for v, c in GT]
    + [("exact-discriminate", "--op-file", v, c) for v, c in OP_FILE]
    + [("resources", "--varphi", v, c) for v, c in ANGLE]
    + [("resources", "--n", v, c) for v, c in [("0", 0), ("341", 0), ("342", 1), (HUGE, 2), ("-1", 2)]]
    + [("homodyne", "--nbar", v, c) for v, c in [("0", 0), ("5e-324", 0), ("1e308", 0), ("-1", 2), ("inf", 2)]]
    + [("homodyne", flag, v, c) for flag in ("--phi", "--theta") for v, c in PHASE]
    + [("homodyne", "--gt", v, c) for v, c in [("0", 0), ("-1e300", 0), ("1e308", 0), ("nan", 2)]]
    + [("homodyne", "--q-range", v, c) for v, c in [
        ("0,0,1", 0), ("6,-6,2", 0), ("-1e300,1e300,3", 0), ("-1e308,1e308,3", 2), ("-6,6,0", 2),
        (f"-6,6,{HUGE}", 2), ("-6,6", 2), ("-6,nan,3", 2)]]
    + [("exact-op", "--nbar", v, c) for v, c in NBAR]
    + [("exact-op", "--gt", v, c) for v, c in GT]
    + [("exact-op", "--phi", v, c) for v, c in PHASE]
)


def _with_flag(argv, flag, value):
    """argv with flag set to value: replaced where argv has it, appended otherwise."""
    if flag in argv:
        i = argv.index(flag)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv + [flag, value]


def _finite_table(path):
    """The table's cells that break the CSV contract: a non-finite number, other than map's row-0
    p_success and a point at infinity written as inf,0."""
    header, rows = read_csv(path)
    bad = []
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            if isinstance(cell, str) or math.isfinite(cell):
                continue
            if header[c] == "p_success" and r == 0 and math.isnan(cell):
                continue
            if cell == math.inf and header[c].endswith("_re") and row[c + 1] == 0.0:
                continue
            bad.append((r, header[c], cell))
    return bad


def _contract_breaks(tmp_path, ops, capsys, case):
    """What the run of one case does against its exit code's contract, as a list of messages."""
    command, flag, value, want = case
    tmp_path.mkdir()
    argv = _with_flag(BASE[command], flag, value)
    argv = [str(ops.parent / a) if a.startswith("ops/") else str(tmp_path / a) if a.endswith((".ppm", ".csv"))
            else a for a in argv]
    out = tmp_path / "out"
    name = "discriminate" if command == "exact-discriminate" else command
    try:
        code = main([name] + argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    breaks = [] if want is None or code == want else [f"exit {code}, want {want}: {err.strip()!r}"]
    files = sorted(p.name for p in tmp_path.iterdir())
    if code == 0:
        if not out.exists():
            breaks.append("exit 0 without --out")
        images = [p for p in tmp_path.iterdir() if p.suffix == ".ppm" or (p == out and name.endswith("basin"))]
        res = dict(zip(argv[::2], argv[1::2])).get("--res")
        for image in images:
            height, width, _ = read_ppm(image).shape
            if f"{width}x{height}" != res:
                breaks.append(f"{image.name} is {width}x{height}, not {res}")
        for table in (p for p in tmp_path.iterdir() if p not in images):
            if name == "exact-op":
                rows = [[float(t) for t in line.split(",")] for line in table.read_text().splitlines()]
                if len(rows) != 4 or not all(len(r) == 8 and all(map(math.isfinite, r)) for r in rows):
                    breaks.append(f"{table.name} is no 4x4 operator")
            elif bad := _finite_table(table):
                breaks.append(f"{table.name} has non-finite cells {bad[:3]}")
    elif code == 1:
        if files:
            breaks.append(f"wrote {files}")
        if err.count("\n") != 1 or not err.startswith(f"tcmap {name}: "):
            breaks.append(f"stderr is not one line: {err!r}")
    elif code == 2:
        if files:
            breaks.append(f"wrote {files}")
        if not err.startswith(f"usage: tcmap {name} ") or flag not in err:
            breaks.append(f"no {name} usage message naming {flag}: {err!r}")
    return breaks


def test_every_flag_value_gives_a_meaningful_result_or_a_refusal(tmp_path, capsys):
    ops = tmp_path / "ops"
    ops.mkdir()
    for nbar in (10, 100):
        write_step_operator(exact_step_operator(nbar), ops / f"op-{nbar}.csv")
    found = {}
    for i, case in enumerate(CASES):
        breaks = _contract_breaks(tmp_path / str(i), ops, capsys, case)
        if breaks:
            found[" ".join(map(str, case[:3]))] = breaks
    assert not found
