"""The numerically exact protocol step as a 4x4 operator: build, coefficients, file I/O.

A step takes two atoms prepared in the same pure state labelled by z, applies
the single-qubit gate diag(e^{i varphi}, -e^{-i varphi}) to atom B, lets the
pair interact with the coherent field, projects the field back onto |alpha>
and atom B onto |0>, and reads off the new label z' of atom A.  The exact
step compresses the full truncated field evolution into a 4x4 operator; its
coefficients drive rational_map.step_point and quadratic_step, and it
reproduces the ideal map (MapParams.coefficients) in the limit of large mean
photon number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .tavis_cummings import (
    BELL_TO_PRODUCT,
    CoherentFieldSpec,
    block_inputs,
    block_propagators,
    evolve_exact,  # noqa: F401  not called here; the benchmark's tracer wraps protocol.evolve_exact
    poisson_amplitudes,
)

# an exact step whose success probability p falls below this is a null outcome
NULL_OUTCOME_EPS = 1e-14


def gate_unitary(varphi: float) -> np.ndarray:
    """The single-atom gate diag(e^{i varphi}, -e^{-i varphi}), basis (|1>, |0>)."""
    return np.array(
        [[cmath.exp(1j * varphi), 0.0], [0.0, -cmath.exp(-1j * varphi)]],
        dtype=np.complex128,
    )


@dataclass(frozen=True)
class ExactStepOperator:
    """4x4 compression <alpha| e^{-iHt} |alpha> in the product atomic basis."""

    matrix: np.ndarray
    nbar: float
    gt: float

    def exchange_symmetric_defect(self) -> float:
        """Max deviation from A<->B exchange symmetry (swap of |1,0>, |0,1>)."""
        perm = [0, 2, 1, 3]
        swapped = self.matrix[np.ix_(perm, perm)]
        return float(np.max(np.abs(self.matrix - swapped)))

    def coefficients(self, varphi: float) -> tuple:
        """quadratic_step coefficients (a, b, c, d, e, f) of the step at gate angle varphi.

        The two-copy state of z is (z^2, z, z, 1) up to normalization, so the
        |1,0> and |0,0> rows of A = M diag(gate) give (a, b, c) and (d, e, f),
        with the two uv columns summed.
        """
        a = self.matrix * np.tile(np.diag(gate_unitary(varphi)), 2)  # the gate on atom B
        return tuple(np.array(k) for r in (1, 3) for k in (a[r, 0], a[r, 1] + a[r, 2], a[r, 3]))


def default_interaction_time(nbar: float) -> float:
    """The protocol's interaction time gt = pi sqrt(nbar) / 2."""
    return math.pi * math.sqrt(nbar) / 2.0


def exact_step_operator(field: CoherentFieldSpec, gt: Optional[float] = None) -> ExactStepOperator:
    """Exact 4x4 step operator for the given field, as one sum over excitation blocks.

    With q_n = (p_{n-2}, p_{n-1}, p_n) the truncated |alpha> amplitudes in
    block n, <alpha| e^{-iHt} |alpha> on (|1,1>, |Psi+>, |0,0>) is
    sum_n q_n^H U_n q_n, plus |p_0|^2 on |0,0> from the uncoupled block 0;
    |Psi-> never couples and keeps <alpha|alpha> (unity up to the tail).
    """
    if gt is None:
        gt = default_interaction_time(field.nbar)
    p = poisson_amplitudes(field)
    q = block_inputs(p)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[:3, :3] = np.einsum("ni,nij,nj->ij", q.conj(), block_propagators(field.nmax + 2, gt), q)
    m[2, 2] += abs(p[0]) ** 2
    m[3, 3] = np.vdot(p, p)
    return ExactStepOperator(matrix=BELL_TO_PRODUCT @ m @ BELL_TO_PRODUCT.T, nbar=field.nbar, gt=gt)


def write_step_operator(op: Union[ExactStepOperator, np.ndarray], path) -> None:
    """Serialize the 16 complex entries, row-major, one matrix row per line.

    Format: four lines of eight comma-separated floats (re,im per entry),
    17 significant digits, basis order (|1,1>, |1,0>, |0,1>, |0,0>).
    """
    m = op.matrix if isinstance(op, ExactStepOperator) else np.asarray(op)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 operator")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in m:
            cells = []
            for entry in row:
                cells.append(f"{entry.real:.17g}")
                cells.append(f"{entry.imag:.17g}")
            fh.write(",".join(cells) + "\n")


def read_step_operator(path, nbar: float = math.nan, gt: float = math.nan) -> ExactStepOperator:
    """Load a serialized step operator; nbar/gt metadata are caller-supplied.

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
    op = ExactStepOperator(matrix=m, nbar=nbar, gt=gt)
    defect = op.exchange_symmetric_defect()
    if defect > 1e-12:
        raise ValueError(f"{path}: step operator breaks the exchange symmetry of the atoms (defect {defect:.6g})")
    return op
