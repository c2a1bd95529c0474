import cmath
import math

import numpy as np
import pytest

from oracles import plane_distance
from tcmap.rational_map import ideal_coefficients, inverse_branches
from tcmap.sphere import INFINITY, as_point, chordal_distance, homogeneous


def test_infinity_is_a_singleton():
    # one marker: the complex number inf+0j, the value the step kernel writes into arrays
    assert INFINITY == complex(math.inf, 0.0) and type(INFINITY) is complex
    assert as_point(INFINITY) is INFINITY
    for z in (complex(math.inf, 0.0), complex(-math.inf, 3.0), complex(1.0, math.inf), np.complex128(math.inf)):
        assert as_point(z) is INFINITY
    assert cmath.isinf(INFINITY)
    assert not cmath.isinf(1 + 2j)
    u, v = homogeneous(INFINITY)
    assert (u, v) == (1.0, 0.0)
    assert inverse_branches(0j, ideal_coefficients(0.5))[1] is INFINITY


def test_nan_is_rejected():
    with pytest.raises(ValueError):
        as_point(complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        as_point(complex(0.0, math.nan))


def test_real_input_coerces_to_complex():
    assert as_point(0.5) == 0.5 + 0j
    assert as_point(2) == 2 + 0j


def test_plane_distance_conventions():
    assert plane_distance(1 + 0j, 1 + 0j) == 0.0
    assert plane_distance(INFINITY, INFINITY) == 0.0
    assert plane_distance(INFINITY, 1 + 0j) == math.inf
    assert plane_distance(3 + 4j, 0j) == 5.0


def test_chordal_distance_is_bounded_and_symmetric():
    pts = [0j, 1 + 1j, -3 + 0.5j, INFINITY, 1e9 + 0j]
    for a in pts:
        for b in pts:
            d = chordal_distance(a, b)
            assert 0.0 <= d <= 2.0 + 1e-15
            assert d == chordal_distance(b, a)
    # huge finite points are close to infinity in this metric
    assert chordal_distance(1e9 + 0j, INFINITY) < 1e-8


def test_chordal_distance_of_labels_whose_square_overflows():
    assert chordal_distance(1e200 + 0j, 1 + 0j) == chordal_distance(INFINITY, 1 + 0j) == pytest.approx(math.sqrt(2.0))
    assert chordal_distance(1e200 + 0j, INFINITY) == 2e-200
    assert chordal_distance(1e200 + 0j, -1e200 + 0j) == 4e-200
    assert chordal_distance(complex(1e308, -1e308), 0j) == 2.0


@pytest.mark.parametrize("w, distance", [(0j, 2.0), (1e100j, 2 * math.sqrt(2.0) * 1e-100)])
def test_chordal_distance_from_a_label_beyond_the_chart_limit(w, distance):
    # the product of the two chart norms must not overflow to a distance of 0
    assert chordal_distance(1e100 + 0j, w) == distance


def test_homogeneous_keeps_moderate_labels_and_scales_huge_ones():
    z = np.array([3 + 4j, 1e75, -1e75j, 1e160 - 1e170j, complex(math.inf, 0.0), complex(math.nan, 1.0)])
    u, v = homogeneous(z)
    assert np.array_equal(u[:3], z[:3]) and np.array_equal(v[:3], [1.0, 1.0, 1.0])
    assert (u[3], v[3]) == (1e-10 - 1j, 1e-170)
    assert np.array_equal(u[4:], [1.0, 1.0]) and np.array_equal(v[4:], [0.0, 0.0])
    assert v.dtype == np.float64
