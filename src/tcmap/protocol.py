"""One step of the iterated postselection protocol, ideal and numerically exact.

A step takes two atoms prepared in the same pure state labelled by z, applies
the single-qubit gate diag(e^{i varphi}, -e^{-i varphi}) to atom B, lets the
pair interact with the coherent field, projects the field back onto |alpha>
and atom B onto |0>, and reads off the new label z' of atom A.  The ideal
step uses the rank-two postselection projector; the exact step compresses
the full truncated field evolution into a 4x4 operator and reproduces the
ideal map in the limit of large mean photon number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .rational_map import DegenerateParameterError, DEGENERACY_EPS, step_point
from .sphere import INFINITY, SpherePoint, as_point, is_infinite
from .tavis_cummings import (
    BELL_TO_PRODUCT,
    AtomPairState,
    CoherentFieldSpec,
    block_inputs,
    block_propagators,
    evolve_exact,  # noqa: F401  not called here; the benchmark's tracer wraps protocol.evolve_exact
    poisson_amplitudes,
)

NULL_OUTCOME_EPS = 1e-14


class NullOutcomeError(ValueError):
    """Raised when a postselection outcome has (numerically) zero probability."""


def _require_gate(varphi: float) -> None:
    if abs(math.cos(varphi)) < DEGENERACY_EPS:
        raise DegenerateParameterError(
            f"gate angle varphi={varphi!r} makes every step land on |0> (cos varphi ~ 0)"
        )


def gate_unitary(varphi: float) -> np.ndarray:
    """The single-atom gate diag(e^{i varphi}, -e^{-i varphi}), basis (|1>, |0>)."""
    return np.array(
        [[cmath.exp(1j * varphi), 0.0], [0.0, -cmath.exp(-1j * varphi)]],
        dtype=np.complex128,
    )


def product_state_vector(z: SpherePoint) -> np.ndarray:
    """Normalized two-copy state of |0> + z|1> in the product basis.

    Evaluated through 1/z for |z| > 1 so that arbitrarily large labels and
    the point at infinity (the state |1,1>) stay exact; the two evaluation
    branches differ only by a global phase.
    """
    z = as_point(z)
    if is_infinite(z):
        return np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    if abs(z) <= 1.0:
        return np.array([z * z, z, z, 1.0], dtype=np.complex128) / (1.0 + abs(z) ** 2)
    w = 1.0 / z
    return np.array([1.0, w, w, w * w], dtype=np.complex128) / (1.0 + abs(w) ** 2)


def step_amplitudes(z: SpherePoint, varphi: float, phi: float = 0.0) -> AtomPairState:
    """Atomic amplitudes after the gate on atom B, before the field interaction.

    The per-atom state is (|0> + z e^{i phi} |1>)/sqrt(1+|z|^2); z at
    infinity means |1,1>.  All four amplitudes are carried: the |Psi+>
    component drops out of the ideal postselection but feeds the exact one.
    """
    z = as_point(z)
    eg = cmath.exp(1j * varphi)
    if is_infinite(z):
        return AtomPairState(c0=0j, cminus=0j, cplus=0j, c1=eg * cmath.exp(2j * phi))
    norm = 1.0 + abs(z) ** 2
    zph = z * cmath.exp(1j * phi)
    return AtomPairState(
        c0=-cmath.exp(-1j * varphi) / norm,
        cminus=math.sqrt(2.0) * zph * math.cos(varphi) / norm,
        cplus=1j * math.sqrt(2.0) * zph * math.sin(varphi) / norm,
        c1=zph * zph * eg / norm,
    )


def protocol_step_ideal(z: SpherePoint, varphi: float, phi: float = 0.0) -> tuple[SpherePoint, float]:
    """One ideal step: new label z' and the success probability of both projections.

    Computed entirely through the postselection amplitudes (not through the
    closed-form rational map): the field projection keeps the |Psi-> and
    |Phi-_phi> components, the |0>_B projection then contributes 1/2, and
    p_success is bounded below by cos^2(varphi)/4 for every z.
    """
    _require_gate(varphi)
    amps = step_amplitudes(z, varphi, phi)
    # <Phi-_phi| component of the gated state
    d = (cmath.exp(1j * phi) * amps.c0 - cmath.exp(-1j * phi) * amps.c1) / math.sqrt(2.0)
    # after <0|_B: amplitude of |1>_A is -cminus/sqrt2, of |0>_A is d e^{-i phi}/sqrt2
    amp1 = -amps.cminus / math.sqrt(2.0)
    amp0 = d * cmath.exp(-1j * phi) / math.sqrt(2.0)
    p_success = abs(amp1) ** 2 + abs(amp0) ** 2
    # relative pole rule analogous to the rational map's denominator test
    if abs(amp0) <= 1e-14 * abs(amp1):
        return INFINITY, p_success
    # z' is defined against the e^{i phi} convention of the one-atom state
    return (amp1 / amp0) * cmath.exp(-1j * phi), p_success


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


def protocol_step_exact(
    z: SpherePoint,
    varphi: float,
    op: ExactStepOperator,
) -> tuple[SpherePoint, float]:
    """One numerically exact step through the compressed operator.

    The two-atom product state of z (field phase fixed to 0) goes through
    the gate on atom B and the operator, and atom B is projected on |0>; the
    step kernel does this with the coefficients of op.  Raises
    NullOutcomeError when the surviving norm is below NULL_OUTCOME_EPS.
    """
    _require_gate(varphi)
    znew, p_success = step_point(z, op.coefficients(varphi))
    if p_success < NULL_OUTCOME_EPS:
        raise NullOutcomeError(f"postselection outcome has probability {p_success:.3e}")
    return znew, p_success


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
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = [float(tok) for tok in line.split(",")]
            if len(vals) != 8:
                raise ValueError(f"expected 8 numbers per line, got {len(vals)}")
            rows.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(4)])
    if len(rows) != 4:
        raise ValueError(f"expected 4 lines, got {len(rows)}")
    m = np.array(rows, dtype=np.complex128)
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
