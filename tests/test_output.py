import math
import tracemalloc

import numpy as np
import pytest

from oracles import grid_points, read_csv, read_ppm
from tcmap.output import (
    UNRESOLVED_RGB,
    _cell_rgb,
    format_value,
    point_cloud_image,
    render_basin_image,
    write_basin_csv,
    write_csv,
    write_ppm,
)


# ---------------------------------------------------------------------- CSV

def test_float_formatting_round_trips():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1e6, 1e6, size=200):
        assert float(format_value(float(x))) == float(x)
    for x in (0.1, 1 / 3, math.pi, 1e-300, -2.5e17):
        assert float(format_value(x)) == x
    assert format_value(float("inf")) == "inf"
    assert format_value(3) == "3"


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    rows = [(int(i), rng.uniform(-10, 10), rng.uniform(-10, 10)) for i in range(50)]
    path = tmp_path / "t.csv"
    write_csv(rows, ("i", "a", "b"), path)
    header, back = read_csv(path)
    assert header == ["i", "a", "b"]
    for row, brow in zip(rows, back):
        assert [float(v) for v in row] == brow


def test_empty_rows_give_header_only(tmp_path):
    path = tmp_path / "e.csv"
    write_csv([], ("x", "y"), path)
    assert path.read_text() == "x,y\n"


def test_csv_write_failure_carries_the_path():
    with pytest.raises(OSError, match="no/such/dir"):
        write_csv([], ("x",), "no/such/dir/file.csv")


BASIN_HEADER = ("x", "y", "attractor_id", "iterations")


def _ids_0_1_or_unresolved(rng, shape):
    return rng.integers(-1, 3, size=shape), rng.integers(0, 98, size=shape)


def _extra_hue_ids(rng, shape):
    return rng.integers(-1, 8, size=shape), rng.integers(0, 98, size=shape)


def _one_id_k_pair(rng, shape):
    return np.full(shape, 3), np.full(shape, 41)


def _unresolved_at_a_huge_max_iter(rng, shape):
    # unresolved cells carry iterations = max_iter, so the (id, k) table must not span 0..max_iter
    ids = rng.integers(-1, 2, size=shape)
    return ids, np.where(ids < 0, 10**9, rng.integers(0, 98, size=shape))


@pytest.mark.parametrize("region, width, height, cells", [
    pytest.param((-1.5, 1.5, -1.5, 1.5), 3, 3, _ids_0_1_or_unresolved,  # the centre midpoint is an exact 0
                 id="region0-3-3"),
    pytest.param((-2.0, -0.5, -1.0, -0.3), 7, 5, _ids_0_1_or_unresolved, id="region1-7-5"),  # negative x and y only
    pytest.param((-2.0, 2.0, -2.0, 2.0), 1, 1, _ids_0_1_or_unresolved, id="region2-1-1"),
    pytest.param((-2.0, 2.0, -2.0, 2.0), 40, 30, _extra_hue_ids, id="extra-hues"),
    pytest.param((-2.0, 2.0, -2.0, 2.0), 9, 4, _one_id_k_pair, id="one-pair"),
    pytest.param((-2.0, 2.0, -2.0, 2.0), 200, 150, _unresolved_at_a_huge_max_iter, id="unresolved-at-1e9"),
])
def test_basin_csv_matches_write_csv_over_the_cells(tmp_path, region, width, height, cells):
    ids, its = cells(np.random.default_rng(width), (height, width))
    pts = grid_points(region, width, height)
    flat = pts.ravel()
    rows = zip(flat.real.tolist(), flat.imag.tolist(), ids.ravel().tolist(), its.ravel().tolist())
    write_csv(rows, BASIN_HEADER, tmp_path / "cells.csv")
    tracemalloc.start()
    try:
        write_basin_csv(pts[0].real, pts[:, 0].imag, ids, its, tmp_path / "basin.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "basin.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    assert peak < 4 << 20
    if width == 3:
        assert b"\n0,0," in (tmp_path / "basin.csv").read_bytes()


def test_basin_csv_write_failure_carries_the_path():
    with pytest.raises(OSError, match="no/such/dir"):
        write_basin_csv(np.zeros(1), np.zeros(1), np.zeros((1, 1), int), np.zeros((1, 1), int),
                        "no/such/dir/file.csv")


# ---------------------------------------------------------------------- PPM

def test_ppm_single_white_pixel(tmp_path):
    img = np.full((1, 1, 3), 255, dtype=np.uint8)
    path = tmp_path / "w.ppm"
    write_ppm(img, path)
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"


def test_ppm_byte_length(tmp_path):
    img = np.zeros((1, 2, 3), dtype=np.uint8)
    path = tmp_path / "b.ppm"
    write_ppm(img, path)
    data = path.read_bytes()
    assert len(data) == len(b"P6\n2 1\n255\n") + 6


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
    path = tmp_path / "r.ppm"
    write_ppm(img, path)
    back = read_ppm(path)
    assert back.dtype == np.uint8 and np.array_equal(back, img)


def test_write_ppm_rejects_a_bad_shape_or_dtype(tmp_path):
    path = tmp_path / "x.ppm"
    for pixels in (np.zeros((2, 2), np.uint8), np.zeros((2, 2, 4), np.uint8), np.zeros(12, np.uint8),
                   np.zeros((2, 2, 3), np.int64), np.zeros((2, 2, 3)), bytes(12)):
        with pytest.raises(ValueError, match=r"\(height, width, 3\) uint8"):
            write_ppm(pixels, path)
    assert not path.exists()


# ------------------------------------------------------------------- render

def test_all_unresolved_renders_yellow():
    ids = np.full((3, 4), -1)
    its = np.full((3, 4), 97)
    img = render_basin_image(ids, its, max_iter=97)
    assert img.shape == (3, 4, 3)
    assert img.tobytes() == bytes(UNRESOLVED_RGB) * 12


def test_render_ramps_are_monotone_and_separated():
    ids = np.array([[0, 0, 1, 1, -1]])
    its = np.array([[0, 50, 0, 50, 97]])
    px = [tuple(p) for p in render_basin_image(ids, its, max_iter=97)[0].tolist()]
    assert px[0] == (200, 200, 200)
    assert px[1][0] < 200 and px[1][0] >= 60   # deeper into the basin: darker grey
    assert px[2] == (40, 40, 40)
    assert px[3][0] < 40                        # dark ramp descends toward black
    assert px[4] == UNRESOLVED_RGB
    # the two ramps never meet
    assert min(p[0] for p in px[:2]) > max(p[0] for p in px[2:4])


def test_render_refuses_ids_above_1():
    # a quadratic rational map has at most two attracting cycles, ids 0 and 1
    for bad in (2, 10**6):
        with pytest.raises(ValueError, match="above 1"):
            render_basin_image(np.array([[0, bad], [-1, 1]]), np.zeros((2, 2), dtype=int), max_iter=10)


def test_render_is_deterministic():
    rng = np.random.default_rng(3)
    ids = rng.integers(-1, 2, size=(6, 6))
    its = rng.integers(0, 98, size=(6, 6))
    a = render_basin_image(ids, its, max_iter=97)
    b = render_basin_image(ids, its, max_iter=97)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("max_iter", [1, 97])
def test_render_table_matches_cell_rgb(max_iter):
    id_values = [-3, -1, 0, 1]
    it_values = [-5, 0, max_iter // 2, max_iter, max_iter + 10]
    every_pair = np.meshgrid(id_values, it_values, indexing="ij")
    rng = np.random.default_rng(max_iter)
    random_cells = (rng.choice(id_values, size=(13, 17)), rng.integers(-5, max_iter + 11, size=(13, 17)))
    for ids, its in (every_pair, random_cells):
        px = render_basin_image(ids, its, max_iter)
        assert px.shape == (*ids.shape, 3) and px.dtype == np.uint8
        for i, j in np.ndindex(ids.shape):
            assert tuple(px[i, j]) == _cell_rgb(int(ids[i, j]), int(its[i, j]), max_iter)


# -------------------------------------------------------------- point clouds

def test_point_cloud_image_marks_samples():
    pts = np.array([0j, 1 + 1j, complex(np.inf, 0.0), 10 + 10j])
    raster = point_cloud_image(pts, (-2.0, 2.0, -2.0, 2.0), 4, 4)
    assert raster.shape == (4, 4, 3) and raster.dtype == np.uint8
    assert tuple(raster[2, 2]) == (0, 0, 0)    # the origin lands just below-right of center
    assert tuple(raster[1, 3]) == (0, 0, 0)    # 1+1j in the upper-right quadrant
    assert np.sum(raster[:, :, 0] == 0) == 2   # inf and out-of-region points dropped
