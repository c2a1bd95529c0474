"""Deterministic file emission: CSV tables and binary PPM images.

Everything here is a pure function of its inputs, so re-running a command
with the same configuration reproduces output files byte for byte.  An image
is a (height, width, 3) uint8 array of RGB pixels, row 0 at the top.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np


def format_value(value) -> str:
    """CSV cell formatting: floats with 17 significant digits (round-trip exact)."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(rows: Iterable[Sequence], header: Sequence[str], path) -> None:
    """RFC-4180-style CSV with '.' decimals; complex data arrives as re/im pairs."""
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(format_value(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _dense_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct values, ascending; each entry's index among them), without sorting the entries.

    A presence table over [min, max] gives the codes when that range is no
    longer than the input, so the table never outgrows the input; a wider
    range (a few far-apart values, such as unresolved cells at a huge
    max_iter) is looked up among its distinct values.
    """
    lo = values.min()
    span = int(values.max()) - int(lo) + 1
    if span > values.size:
        distinct = np.unique(values)
        return distinct, np.searchsorted(distinct, values)
    offsets = values - lo
    present = np.flatnonzero(np.bincount(offsets, minlength=span))
    lookup = np.zeros(span, dtype=np.intp)
    lookup[present] = np.arange(present.size)
    return present + lo, lookup[offsets]


def write_basin_csv(xs, ys, attractor_ids, iterations, path) -> None:
    """write_csv's bytes for the basin rows (xs[j], ys[i], id, k), row-major.

    Each x, y and distinct (id, k) pair is formatted once; each image row is one write.
    """
    id_vals, id_code = _dense_codes(np.ravel(attractor_ids))
    k_vals, k_code = _dense_codes(np.ravel(iterations))
    pairs, pair_code = _dense_codes(id_code * k_vals.size + k_code)
    tails = np.array([f",{format_value(id_vals[c // k_vals.size])},{format_value(k_vals[c % k_vals.size])}\n"
                      for c in pairs.tolist()], dtype=object)[pair_code].reshape(len(ys), len(xs))
    xcol = [format_value(x) + "," for x in np.asarray(xs).tolist()]
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("x,y,attractor_id,iterations\n")
            for y, row in zip(np.asarray(ys).tolist(), tails.tolist()):
                fh.write("".join(chain.from_iterable(zip(xcol, repeat(format_value(y)), row))))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path) -> tuple[list[str], list[list]]:
    """Parse back a CSV written by write_csv (used by tests and tools)."""

    def cell(tok: str):
        try:
            return float(tok)
        except ValueError:
            return tok

    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [[cell(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return header, rows


UNRESOLVED_RGB = (255, 255, 0)
# fixed hues for attractor ids >= 2, cycled
EXTRA_HUES = ((200, 80, 80), (80, 120, 200), (200, 140, 60), (140, 80, 200))


def _cell_rgb(attractor_id: int, iterations: int, max_iter: int) -> tuple[int, int, int]:
    if attractor_id < 0:
        return UNRESOLVED_RGB
    it = min(max(iterations, 0), max_iter)
    span = max(max_iter, 1)
    if attractor_id == 0:
        v = 200 - (140 * it) // span  # grey ramp, base 200 down to 60
        return (v, v, v)
    if attractor_id == 1:
        v = 40 - (40 * it) // span  # dark ramp, base 40 down to 0
        return (v, v, v)
    base = EXTRA_HUES[(attractor_id - 2) % len(EXTRA_HUES)]
    return tuple((b * (2 * span - it)) // (2 * span) for b in base)


def render_basin_image(attractor_ids: np.ndarray, iterations: np.ndarray, max_iter: int) -> np.ndarray:
    """Color a basin classification: per-attractor ramp by iteration count.

    id 0 renders on a grey ramp from 200, id 1 on a dark ramp from 40,
    further ids on fixed hue ramps; unresolved cells (-1) are pure yellow.
    """
    ids = np.asarray(attractor_ids)
    its = np.asarray(iterations)
    if ids.shape != its.shape or ids.ndim != 2:
        raise ValueError("attractor_ids and iterations must be equal-shape 2D arrays")
    # _cell_rgb tabulated by id (-1 for all unresolved, 0, 1, one per extra hue) and clipped k
    row = np.where(ids < 2, np.maximum(ids, -1), 2 + (ids - 2) % len(EXTRA_HUES)) + 1
    k = np.where(ids < 0, 0, np.clip(its, 0, max_iter))
    table = np.array([[_cell_rgb(i, j, max_iter) for j in range(int(k.max(initial=0)) + 1)]
                      for i in range(-1, 2 + len(EXTRA_HUES))], dtype=np.uint8)
    return table[row, k]


def point_cloud_image(
    points: np.ndarray,
    region: tuple[float, float, float, float],
    width: int,
    height: int,
) -> np.ndarray:
    """Black-on-white raster of complex samples (out-of-region points dropped)."""
    xmin, xmax, ymin, ymax = region
    img = np.full((height, width), 255, dtype=np.uint8)
    pts = np.asarray(points)
    with np.errstate(over="ignore"):  # a sample far outside a tiny window
        cols = (pts.real - xmin) / (xmax - xmin) * width
        rows = (ymax - pts.imag) / (ymax - ymin) * height
    # dropped while still floats, so that no non-finite position reaches the integer cast
    keep = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    img[np.floor(rows[keep]).astype(np.int64), np.floor(cols[keep]).astype(np.int64)] = 0
    return np.repeat(img[:, :, None], 3, axis=2)


def write_ppm(pixels: np.ndarray, path) -> None:
    """Binary PPM (P6) of a (height, width, 3) uint8 image: ASCII header then exactly 3*w*h bytes."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected a (height, width, 3) uint8 image, got shape {pixels.shape} of {pixels.dtype}")
    height, width, _ = pixels.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(pixels.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write PPM to {path}: {exc}") from exc


def read_ppm(path) -> np.ndarray:
    """Read back a binary PPM produced by write_ppm as a (height, width, 3) uint8 image."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6\n"):
        raise ValueError("not a P6 PPM written by this package")
    rest = data[3:]
    nl = rest.index(b"\n")
    w, h = (int(tok) for tok in rest[:nl].split())
    rest = rest[nl + 1 :]
    nl = rest.index(b"\n")
    if rest[:nl] != b"255":
        raise ValueError("expected maxval 255")
    return np.frombuffer(rest[nl + 1 :], dtype=np.uint8).reshape(h, w, 3)
