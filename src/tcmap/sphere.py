"""Points on the extended complex plane (Riemann sphere).

A pure qubit state |0> + z e^{i phi} |1> (up to normalization) is labelled by
a single point z of the sphere, a complex number: either finite or the
point at infinity INFINITY = inf+0j, which encodes the state |1>.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# The point at infinity: a sphere point is a complex number, and this is the
# value the step kernel writes for infinity into complex arrays.
INFINITY = complex(math.inf, 0.0)


def as_point(z) -> complex:
    """Coerce a number to a sphere point.

    Real and complex inputs are accepted; any non-finite component maps to
    the single INFINITY constant, NaN is rejected.
    """
    w = complex(z)
    if cmath.isnan(w):
        raise ValueError("NaN is not a point of the sphere")
    return INFINITY if cmath.isinf(w) else w


# finite points beyond this modulus get a scaled chart: below it |u|^2 + v^2 <= 1e150 + 1,
# so the product of two such norms, as overlaps and chordal distances take it, cannot overflow
HOMOGENEOUS_LIMIT = 1e75


def homogeneous(z) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous coordinates [u:v] of sphere points: [z:1] when finite, [1:0] at infinity.

    Takes a sphere point or a complex array; any non-finite entry is the
    point at infinity.  A finite entry whose modulus exceeds
    HOMOGENEOUS_LIMIT is scaled to [z/s : 1/s] with s = max(|Re z|, |Im z|),
    the same point with v still real, so that |u|^2 + v^2 cannot overflow.
    """
    z = np.asarray(z, dtype=np.complex128)
    far = ~(np.abs(z) <= HOMOGENEOUS_LIMIT)  # also the non-finite entries
    u, v = np.where(far, 1.0, z), np.where(far, 0.0, 1.0)
    if far.any():
        big = far & np.isfinite(z)
        s = np.maximum(np.abs(z.real[big]), np.abs(z.imag[big]))
        u[big] = z[big] / s
        v[big] = 1.0 / s
    return u, v


def chordal_distance(z, w):
    """Chordal metric on the unit sphere, 2|z-w|/sqrt((1+|z|^2)(1+|w|^2)).

    Bounded by 2 and continuous across infinity, so it is safe for
    near-return tests on orbits that may pass close to a pole.  Evaluated
    as 2|u1 v2 - u2 v1| / (|[u1:v1]| |[u2:v2]|); sphere points give a float,
    arrays an array.
    """
    (u1, v1), (u2, v2) = homogeneous(z), homogeneous(w)
    norms = (np.abs(u1) ** 2 + v1 * v1) * (np.abs(u2) ** 2 + v2 * v2)
    out = 2.0 * np.abs(u1 * v2 - u2 * v1) / np.sqrt(norms)
    return out if out.ndim else float(out)
