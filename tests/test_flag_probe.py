"""Flag-space probe: edge values of every flag of every subcommand, run in process.

Each case sets one flag of a small, fast command line to an edge value (0, tiny, huge, just
inside and just outside each bound) and checks the contract of the exit code it gets:

* 0: every output parses, an image has the asked size, and every documented column is finite,
  apart from `map`'s row-0 `p_success` and the point at infinity written as `inf,0`;
* 1: no file is left behind, and stderr holds one line;
* 2: the subcommand's usage message, naming the flag, and no file.

Huge counts appear only where the work does not grow with them, so `--nbar 1e9`, the largest
accepted value, is not run here: its operator takes seconds and hundreds of MB to build.

A second test holds every value flag to one rule for a value with a leading minus, and a third
aims every pair of path flags that one subcommand accepts at one existing file.
"""

import argparse
import itertools
import math
import os

import pytest

from oracles import read_csv, read_ppm
from tcmap.cli import _build_parser, main, parse_complex, parse_region
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
    # an image far beyond the address space: its allocation fails after the CSV is written
    + [("julia", "--res", v, c) for v, c in RES + [("100000000x100000000", 1)]]
    # a second output that cannot be written: the first one, already written, is removed
    + [("julia", "--image", "nodir/julia.ppm", 1)]
    + [(cmd, "--csv", "nodir/basin.csv", 1) for cmd in ("basin", "exact-basin")]
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


# a value for each flag that starts with one minus; paths are left out, as such a value would name a file
PATH_FLAGS = ("--out", "--csv", "--image", "--op-file")
MINUS_VALUE = {parse_complex: "-0.2,0", parse_region: "-2,2,-2,2"}


def _value_flags():
    """(command, flag, value with a leading minus) for every flag of every subcommand that takes a value."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        for action in parser._actions:
            flag = action.option_strings[0]
            if action.nargs != 0 and not action.choices and flag not in PATH_FLAGS:
                yield name, flag, MINUS_VALUE.get(action.type, "-1e-3")


def test_a_value_with_a_leading_minus_reads_as_after_an_equals_sign(tmp_path, capsys):
    # argparse would take -1e-3 for an option; every flag must name its range instead
    differ = {}
    for command, flag, value in _value_flags():
        base = [str(tmp_path / a) if a.endswith((".ppm", ".csv")) else a for a in BASE[command]]
        seen = []
        for tail in ([flag, value], [f"{flag}={value}"]):
            try:
                code = main([command] + base + tail + ["--out", str(tmp_path / "out")])
            except SystemExit as exc:
                code = exc.code
            seen.append((code, capsys.readouterr().err))
        if seen[0] != seen[1]:
            differ[f"{command} {flag} {value}"] = seen
    assert not differ


def _path_flag_pairs():
    """(subcommand, base command line, two of its path flags) for every pair one subcommand's parser accepts."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        # discriminate reads an --op-file only on its exact command line
        base = BASE["exact-discriminate" if name == "discriminate" else name]
        for pair in itertools.combinations([flag for flag in PATH_FLAGS if flag in flags], 2):
            yield name, base, pair


def test_two_path_flags_on_one_file_are_a_usage_error_that_keeps_the_file(tmp_path, capsys):
    # a valid operator, so that a run which reads it as --op-file fails only on the clash
    kept = tmp_path / "kept.csv"
    write_step_operator(exact_step_operator(10.0), kept)
    before = kept.read_bytes()
    pairs = list(_path_flag_pairs())
    assert {(name, pair) for name, _, pair in pairs} == {
        ("julia", ("--out", "--image")), ("basin", ("--out", "--csv")), ("discriminate", ("--out", "--op-file")),
        ("exact-basin", ("--out", "--csv")), ("exact-basin", ("--out", "--op-file")),
        ("exact-basin", ("--csv", "--op-file"))}
    broken = {}
    for name, base, pair in pairs:
        argv = [str(tmp_path / a) if a.endswith((".ppm", ".csv")) else a for a in base]
        for flag in pair:
            argv = _with_flag(argv, flag, str(kept))
        if "--out" not in pair:
            argv += ["--out", str(tmp_path / "out")]
        try:
            code = main([name] + argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        left = sorted(os.listdir(tmp_path))
        if code != 2 or not all(flag in err for flag in pair) or kept.read_bytes() != before or left != ["kept.csv"]:
            broken[f"{name} {' '.join(pair)}"] = (code, err.strip().splitlines()[-1:], left)
    assert not broken
