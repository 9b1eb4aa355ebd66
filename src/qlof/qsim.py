"""Dense statevector simulator sized for oracle-style subroutines (<= 16 qubits).

Registers are named spans of qubits, little-endian (qubit 0 is the least
significant bit of the basis index).  The simulator supports exactly what the
pipeline composes:

* uniform state preparation over an arbitrary domain size,
* the value-conditioned rotation that writes a register value into an
  ancilla amplitude (linear or square-root mode),
* the amplitude-estimation outcome law: the kernel of one Grover eigenbranch
  at any outcomes.

The statevector circuits that law is checked against (oracles as permutation
unitaries, Grover operators, phase estimation with the precision register
materialized) are test references, in ``tests/reference.py``.

Norm is asserted to 1e-10 after every operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_CAPACITY = 16
_NORM_TOL = 1e-10


class QsimError(Exception):
    """Base class for simulator failures."""


class CapacityError(QsimError):
    """Requested register layout exceeds the simulator's qubit capacity."""


class RegisterOverlapError(QsimError):
    """Output register collides with an input register."""


class ValueRangeError(QsimError):
    """A rotation was asked for an amplitude outside [-1, 1]."""


@dataclass(frozen=True)
class Register:
    name: str
    offset: int
    width: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def dim(self) -> int:
        return 1 << self.width


class StateVector:
    """Complex amplitudes over named qubit registers."""

    def __init__(self, registers: Sequence[tuple[str, int]]) -> None:
        self.registers: dict[str, Register] = {}
        offset = 0
        for name, width in registers:
            if width < 1:
                raise QsimError(f"register {name!r} needs at least one qubit")
            if name in self.registers:
                raise QsimError(f"duplicate register name {name!r}")
            self.registers[name] = Register(name, offset, width)
            offset += width
        if offset > DEFAULT_CAPACITY:
            raise CapacityError(
                f"{offset} qubits requested, capacity is {DEFAULT_CAPACITY}"
            )
        self.n_qubits = offset
        self.amps = np.zeros(1 << offset, dtype=np.complex128)
        self.amps[0] = 1.0

    def reg(self, name: str) -> Register:
        try:
            return self.registers[name]
        except KeyError:
            raise QsimError(f"unknown register {name!r}") from None

    def values(self, name: str) -> np.ndarray:
        """Register value of every basis state, as an int array."""
        r = self.reg(name)
        return (np.arange(self.amps.size) >> r.offset) & r.mask

    def probabilities(self, name: str) -> np.ndarray:
        """Marginal outcome distribution of one register."""
        r = self.reg(name)
        p = np.abs(self.amps) ** 2
        return np.bincount(self.values(name), weights=p, minlength=r.dim)

    def probability(self, name: str, value: int) -> float:
        return float(self.probabilities(name)[value])

    def check_norm(self) -> None:
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise QsimError(f"state norm drifted to {norm}")


def prepare_uniform(sv: StateVector, reg: str, domain: int) -> StateVector:
    """Spread each |reg=0> branch uniformly over reg values 0..domain-1.

    The register must be |0> on every populated branch (the map is the
    unitary extension of |0> -> uniform).
    """
    r = sv.reg(reg)
    if not 1 <= domain <= r.dim:
        raise QsimError(f"domain {domain} outside [1, {r.dim}]")
    vals = sv.values(reg)
    occupied = np.abs(sv.amps) > 0
    if np.any(vals[occupied] != 0):
        raise QsimError(f"register {reg!r} must be |0> before uniform preparation")
    base = np.nonzero(vals == 0)[0]
    scale = 1.0 / math.sqrt(domain)
    src = sv.amps[base] * scale
    for v in range(domain):
        sv.amps[base + (v << r.offset)] = src
    sv.check_norm()
    return sv


def controlled_value_rotation(
    sv: StateVector,
    value_reg: str,
    ancilla: str,
    values: Sequence[float] | np.ndarray,
    scale: float,
    mode: str = "linear",
) -> StateVector:
    """Rotate the ancilla by an amplitude derived from the value register.

    ``values[j]`` is the real value v of the register's basis state j.  Per
    basis state, the ancilla |0> becomes c|0> + sqrt(1-c^2)|1> with
    c = v/scale in linear mode or sqrt(v/scale) in sqrt mode.  Only the
    values of populated branches are read and validated, so ``values`` may
    stop short of the register's padding states, whose values never trip
    the range check.  The ancilla must start in |0>.
    """
    if mode not in ("linear", "sqrt"):
        raise QsimError(f"unknown rotation mode {mode!r}")
    if scale <= 0:
        raise ValueRangeError("rotation scale must be positive")
    anc = sv.reg(ancilla)
    if anc.width != 1:
        raise QsimError("rotation ancilla must be a single qubit")
    if value_reg == ancilla:
        raise RegisterOverlapError("value register and ancilla overlap")
    vreg = sv.reg(value_reg)

    anc_bit = (np.arange(sv.amps.size) >> anc.offset) & 1
    if np.any(np.abs(sv.amps[anc_bit == 1]) > 0):
        raise QsimError(f"ancilla {ancilla!r} must be |0> before rotation")

    vals = sv.values(value_reg)
    populated = np.unique(vals[np.abs(sv.amps) > 0])
    v = np.asarray(values, dtype=float)[populated]
    c = v / scale
    if mode == "sqrt":
        negative = c < -1e-12
        if negative.any():
            raise ValueRangeError(f"sqrt rotation needs v >= 0, got {v[negative][0]}")
        c = np.sqrt(np.maximum(c, 0.0))
    over = np.flatnonzero(np.abs(c) > 1.0 + 1e-12)
    if over.size:
        raise ValueRangeError(
            f"|amplitude| {abs(c[over[0]])} > 1 for register value "
            f"{populated[over[0]]} (scale {scale})"
        )
    c_table = np.zeros(vreg.dim)
    c_table[populated] = np.clip(c, -1.0, 1.0)
    s_table = np.sqrt(np.clip(1.0 - c_table**2, 0.0, 1.0))

    zero_idx = np.nonzero(anc_bit == 0)[0]
    partner = zero_idx | (1 << anc.offset)
    v0 = vals[zero_idx]
    sv.amps[partner] = sv.amps[zero_idx] * s_table[v0]
    sv.amps[zero_idx] = sv.amps[zero_idx] * c_table[v0]
    sv.check_norm()
    return sv


def ae_distribution(theta: float | np.ndarray, t: int, ys: np.ndarray) -> np.ndarray:
    """Probabilities of the outcomes ``ys`` of amplitude estimation's t-qubit
    phase register on the Grover eigenbranch of eigenphase 2*theta,
    broadcast over ``theta`` and ``ys``.

    This is the t-qubit phase-estimation kernel at phase error
    d = theta/pi - y/N, N = 2^t, in turns:
    sin^2(pi*N*d) / (N^2 sin^2(pi*d)), and 1 where sin(pi*d) vanishes, so
    on-grid angles need no special case.  The numerator is sin^2(N*theta)
    for every integer y, so it is evaluated once per angle, from the
    angle's offset to the nearest grid point.  The branch at -theta gives
    outcome y what this gives N - y.
    """
    n = 1 << t
    x = np.asarray(theta, dtype=float) * (n / math.pi)  # the peak, in outcomes
    sin_nd = np.sin(np.pi * (x - np.rint(x)))
    d = x - ys
    d -= n * np.rint(d / n)  # exact; keeps sin(pi*d) accurate near a whole turn
    sin_d = np.sin(d * (math.pi / n))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (sin_nd / (n * sin_d)) ** 2
    out[np.abs(sin_d) < 1e-15] = 1.0
    return out

