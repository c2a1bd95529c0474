"""The numerically exact protocol step as a 4x4 operator: build, coefficients, file I/O.

A step takes two atoms prepared in the same pure state labelled by z, applies
the single-qubit gate diag(e^{i varphi}, -e^{-i varphi}) to atom B, lets the
pair interact with the coherent field, projects the field back onto |alpha>
and atom B onto |0>, and reads off the new label z' of atom A.  The exact
step compresses the full truncated field evolution into a 4x4 operator; its
coefficients drive rational_map.step_point and quadratic_step, and it
reproduces the ideal map (rational_map.ideal_coefficients) in the limit of
large mean photon number.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

import numpy as np

from .rational_map import ideal_coefficients
from .tavis_cummings import (
    BELL_TO_PRODUCT,
    block_inputs,
    block_propagators,
    evolve_exact,  # noqa: F401  not called here; the benchmark's tracer wraps protocol.evolve_exact
    poisson_amplitudes,
)


def gate_unitary(varphi: float) -> np.ndarray:
    """The single-atom gate diag(e^{i varphi}, -e^{-i varphi}), basis (|1>, |0>)."""
    return np.array(
        [[cmath.exp(1j * varphi), 0.0], [0.0, -cmath.exp(-1j * varphi)]],
        dtype=np.complex128,
    )


def exchange_symmetric_defect(matrix: np.ndarray) -> float:
    """Max deviation of a 4x4 step operator from A<->B exchange symmetry (swap of |1,0>, |0,1>)."""
    perm = [0, 2, 1, 3]
    swapped = matrix[np.ix_(perm, perm)]
    return float(np.max(np.abs(matrix - swapped)))


def step_coefficients(matrix: np.ndarray, varphi: float) -> tuple:
    """quadratic_step coefficients (a, b, c, d, e, f) of the 4x4 step operator at gate angle varphi.

    The two-copy state of z is (z^2, z, z, 1) up to normalization, so the
    |1,0> and |0,0> rows of A = M diag(gate) give (a, b, c) and (d, e, f),
    with the two uv columns summed.  A degenerate angle raises DegenerateParameterError.
    """
    ideal_coefficients(varphi)  # the gate rule
    a = matrix * np.tile(np.diag(gate_unitary(varphi)), 2)  # the gate on atom B
    return tuple(np.array(k) for r in (1, 3) for k in (a[r, 0], a[r, 1] + a[r, 2], a[r, 3]))


def default_interaction_time(nbar: float) -> float:
    """The protocol's interaction time gt = pi sqrt(nbar) / 2."""
    return math.pi * math.sqrt(nbar) / 2.0


def exact_step_operator(nbar: float, gt: Optional[float] = None, phi: float = 0.0) -> np.ndarray:
    """Exact 4x4 step operator <alpha| e^{-iHt} |alpha>, alpha = sqrt(nbar) e^{i phi}, in the
    product atomic basis, as one sum over excitation blocks.

    With q_n = (p_{n-2}, p_{n-1}, p_n) the truncated |alpha> amplitudes in
    block n, <alpha| e^{-iHt} |alpha> on (|1,1>, |Psi+>, |0,0>) is
    sum_n q_n^H U_n q_n, plus |p_0|^2 on |0,0> from the uncoupled block 0;
    |Psi-> never couples and keeps <alpha|alpha> (unity up to the tail).
    """
    p = poisson_amplitudes(nbar, phi)
    if gt is None:
        gt = default_interaction_time(nbar)
    q = block_inputs(p)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[:3, :3] = np.einsum("ni,nij,nj->ij", q.conj(), block_propagators(len(p) + 1, gt), q)
    m[2, 2] += abs(p[0]) ** 2
    m[3, 3] = np.vdot(p, p)
    return BELL_TO_PRODUCT @ m @ BELL_TO_PRODUCT.T


def write_step_operator(matrix: np.ndarray, path) -> None:
    """Serialize the 16 complex entries, row-major, one matrix row per line.

    Format: four lines of eight comma-separated floats (re,im per entry),
    17 significant digits, basis order (|1,1>, |1,0>, |0,1>, |0,0>).
    """
    if matrix.shape != (4, 4):
        raise ValueError("expected a 4x4 operator")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in matrix:
            cells = []
            for entry in row:
                cells.append(f"{entry.real:.17g}")
                cells.append(f"{entry.imag:.17g}")
            fh.write(",".join(cells) + "\n")


def read_step_operator(path) -> np.ndarray:
    """Load a serialized step operator.

    Rejects non-finite entries, a spectral norm above 1 + 1e-9 (a step
    operator is a compression of a unitary) and an exchange-symmetry defect
    above 1e-12 (the two atoms couple to the field alike).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            rows = [[float(tok) for tok in line.split(",")] for line in map(str.strip, fh) if line]
    except ValueError as exc:  # a token that is no number, or a byte that is no ASCII
        raise ValueError(f"{path}: {exc}") from None
    for vals in rows:
        if len(vals) != 8:
            raise ValueError(f"{path}: expected 8 numbers per line, got {len(vals)}")
    if len(rows) != 4:
        raise ValueError(f"{path}: expected 4 lines, got {len(rows)}")
    m = np.array([[complex(vals[2 * j], vals[2 * j + 1]) for j in range(4)] for vals in rows])
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: step operator has non-finite entries")
    norm = np.linalg.norm(m, 2)
    if not norm <= 1.0 + 1e-9:
        raise ValueError(f"{path}: step operator norm {norm:.6g} exceeds 1, so it is no compression of a unitary")
    defect = exchange_symmetric_defect(m)
    if defect > 1e-12:
        raise ValueError(f"{path}: step operator breaks the exchange symmetry of the atoms (defect {defect:.6g})")
    return m
