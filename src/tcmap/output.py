"""Deterministic file emission: CSV tables and binary PPM images.

Everything here is a pure function of its inputs, so re-running a command
with the same configuration reproduces output files byte for byte.  An image
is a (height, width, 3) uint8 array of RGB pixels, row 0 at the top.  The
module only writes; reading the files back is test code.
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


UNRESOLVED_RGB = (255, 255, 0)


def _cell_rgb(attractor_id: int, iterations: int, max_iter: int) -> tuple[int, int, int]:
    if attractor_id < 0:
        return UNRESOLVED_RGB
    it = min(max(iterations, 0), max_iter)
    span = max(max_iter, 1)
    if attractor_id == 0:
        v = 200 - (140 * it) // span  # grey ramp, base 200 down to 60
    else:
        v = 40 - (40 * it) // span  # dark ramp, base 40 down to 0
    return (v, v, v)


def render_basin_image(attractor_ids: np.ndarray, iterations: np.ndarray, max_iter: int) -> np.ndarray:
    """Color a basin classification: per-attractor ramp by iteration count.

    id 0 renders on a grey ramp from 200, id 1 on a dark ramp from 40, and
    unresolved cells (any negative id) are pure yellow.  A quadratic rational
    map has at most two attracting cycles, so an id above 1 is refused.
    """
    ids = np.asarray(attractor_ids)
    its = np.asarray(iterations)
    if ids.shape != its.shape or ids.ndim != 2:
        raise ValueError("attractor_ids and iterations must be equal-shape 2D arrays")
    if ids.size and ids.max() > 1:
        raise ValueError(f"attractor id {int(ids.max())} above 1: the map has at most two attractors")
    # _cell_rgb tabulated by row (unresolved, 0, 1) and clipped k, read through one flat index
    k = np.where(ids < 0, 0, np.clip(its, 0, max_iter))
    width = int(k.max(initial=0)) + 1
    table = np.array([_cell_rgb(i, j, max_iter) for i in (-1, 0, 1) for j in range(width)], dtype=np.uint8)
    return table[(np.maximum(ids, -1) + 1) * width + k]


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
