"""Dense statevector simulator sized for oracle-style subroutines (<= 16 qubits).

Registers are named spans of qubits, little-endian (qubit 0 is the least
significant bit of the basis index).  The simulator supports exactly what the
pipeline composes:

* uniform state preparation over an arbitrary domain size,
* classical-function oracles applied as permutation unitaries
  |a>|b> -> |a>|b XOR f(a)>,
* the value-conditioned rotation that writes a register value into an
  ancilla amplitude (linear or square-root mode),
* Grover operators Q = (2|psi><psi| - I)(I - 2P_good) built from a prepared
  state, with eigenphases +-2*theta where sin^2(theta) = P(good),
* phase estimation, either by materializing the full precision register and
  applying the inverse QFT, or analytically from the eigenstructure; both
  paths produce the same outcome distribution and are cross-checked in tests,
* computational-basis measurement with seeded sampling.

Norm is asserted to 1e-10 after every operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg

from .ledger import QueryLedger

DEFAULT_CAPACITY = 16
_NORM_TOL = 1e-10


class QsimError(Exception):
    """Base class for simulator failures."""


class CapacityError(QsimError):
    """Requested register layout or phase estimation exceeds qubit capacity."""


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

    def __init__(
        self,
        registers: Sequence[tuple[str, int]],
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.registers: dict[str, Register] = {}
        offset = 0
        for name, width in registers:
            if width < 1:
                raise QsimError(f"register {name!r} needs at least one qubit")
            if name in self.registers:
                raise QsimError(f"duplicate register name {name!r}")
            self.registers[name] = Register(name, offset, width)
            offset += width
        if offset > capacity:
            raise CapacityError(
                f"{offset} qubits requested, capacity is {capacity}"
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

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.registers = self.registers
        out.n_qubits = self.n_qubits
        out.amps = self.amps.copy()
        return out


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


def apply_oracle(
    sv: StateVector,
    f: Callable[..., int],
    in_regs: str | Sequence[str],
    out_reg: str,
    ledger: QueryLedger | None = None,
    charge: Mapping[str, int] = MappingProxyType({"oracle": 1}),
) -> StateVector:
    """Apply |in>|out> -> |in>|out XOR f(in)> as a permutation unitary.

    ``f`` receives one integer per input register and must return a value
    fitting the output register for every point of the input domain.  A
    ``ledger`` is charged ``charge`` once per application, regardless of
    superposition width.
    """
    if isinstance(in_regs, str):
        in_regs = [in_regs]
    if out_reg in in_regs:
        raise RegisterOverlapError(f"output register {out_reg!r} is also an input")
    regs = [sv.reg(nm) for nm in in_regs]
    out = sv.reg(out_reg)

    # Tabulate f over the flat input domain once, then index per basis state.
    dims = [r.dim for r in regs]
    flat_dim = int(np.prod(dims)) if dims else 1
    table = np.empty(flat_dim, dtype=np.int64)
    for flat in range(flat_dim):
        rem, args = flat, []
        for d in dims:
            args.append(rem % d)
            rem //= d
        fv = int(f(*args))
        if not 0 <= fv < out.dim:
            raise QsimError(
                f"oracle output {fv} does not fit register {out_reg!r}"
            )
        table[flat] = fv

    idx = np.arange(sv.amps.size)
    flat_in = np.zeros(sv.amps.size, dtype=np.int64)
    stride = 1
    for r, d in zip(regs, dims):
        flat_in += ((idx >> r.offset) & r.mask) * stride
        stride *= d
    perm = idx ^ (table[flat_in] << out.offset)
    new = np.empty_like(sv.amps)
    new[perm] = sv.amps
    sv.amps = new
    if ledger is not None:
        ledger.charge_many(charge)
    sv.check_norm()
    return sv


def controlled_value_rotation(
    sv: StateVector,
    value_reg: str,
    ancilla: str,
    scale: float,
    decode: Callable[[int], float] | None = None,
    mode: str = "linear",
) -> StateVector:
    """Rotate the ancilla by an amplitude derived from the value register.

    Per basis value v (decoded to a real), the ancilla |0> becomes
    c|0> + sqrt(1-c^2)|1> with c = v/scale in linear mode or sqrt(v/scale) in
    sqrt mode.  Only values carried by populated branches are validated, so
    padding values of the register never trip the range check.  The ancilla
    must start in |0>.
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
    if decode is None:
        decode = float

    anc_bit = (np.arange(sv.amps.size) >> anc.offset) & 1
    if np.any(np.abs(sv.amps[anc_bit == 1]) > 0):
        raise QsimError(f"ancilla {ancilla!r} must be |0> before rotation")

    vals = sv.values(value_reg)
    populated = np.unique(vals[np.abs(sv.amps) > 0])
    c_table = np.zeros(vreg.dim)
    for v in populated:
        x = decode(int(v)) / scale
        if mode == "sqrt":
            if x < -1e-12:
                raise ValueRangeError(f"sqrt rotation needs v >= 0, got {decode(int(v))}")
            c = math.sqrt(max(x, 0.0))
        else:
            c = x
        if abs(c) > 1.0 + 1e-12:
            raise ValueRangeError(
                f"|amplitude| {abs(c)} > 1 for register value {int(v)} (scale {scale})"
            )
        c_table[v] = min(max(c, -1.0), 1.0)
    s_table = np.sqrt(np.clip(1.0 - c_table**2, 0.0, 1.0))

    zero_idx = np.nonzero(anc_bit == 0)[0]
    partner = zero_idx | (1 << anc.offset)
    v0 = vals[zero_idx]
    sv.amps[partner] = sv.amps[zero_idx] * s_table[v0]
    sv.amps[zero_idx] = sv.amps[zero_idx] * c_table[v0]
    sv.check_norm()
    return sv


def measure(
    sv: StateVector,
    reg: str,
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """i.i.d. samples from the register's marginal distribution."""
    if shots < 1:
        raise QsimError("shots must be >= 1")
    p = sv.probabilities(reg)
    p = p / p.sum()
    return rng.choice(p.size, size=shots, p=p)


# ---------------------------------------------------------------------------
# Grover operator and phase estimation
# ---------------------------------------------------------------------------


class GroverOperator:
    """Q = (2|psi><psi| - I)(I - 2 P_good) for a prepared state |psi>.

    On the two-dimensional subspace spanned by the good and bad components of
    |psi>, Q rotates by 2*theta with sin^2(theta) = P(good); its eigenphases
    there are +-2*theta.
    """

    def __init__(self, psi: np.ndarray, good_mask: np.ndarray) -> None:
        psi = np.asarray(psi, dtype=np.complex128)
        good_mask = np.asarray(good_mask, dtype=bool)
        if psi.shape != good_mask.shape:
            raise QsimError("state and good mask must have the same dimension")
        self.psi = psi
        self.good_mask = good_mask
        self.amplitude = float(np.sum(np.abs(psi[good_mask]) ** 2))
        self.theta = math.asin(min(1.0, math.sqrt(max(self.amplitude, 0.0))))
        self.dim = psi.size

    @property
    def matrix(self) -> np.ndarray:
        sign = np.where(self.good_mask, -1.0, 1.0)
        flip = np.diag(sign.astype(np.complex128))  # I - 2 P_good
        return 2.0 * np.outer(self.psi, self.psi.conj()) @ flip - flip

    def apply(self, vec: np.ndarray) -> np.ndarray:
        flipped = np.where(self.good_mask, -vec, vec)
        return 2.0 * self.psi * np.vdot(self.psi, flipped) - flipped


def grover_operator(
    preparer: Callable[[], StateVector],
    good_flag: Callable[[int], bool] | tuple[str, int],
) -> GroverOperator:
    """Build the Grover operator of a state-preparer.

    ``good_flag`` is either a predicate on basis indices or a
    ``(register, value)`` pair marking the good subspace.
    """
    sv = preparer()
    if isinstance(good_flag, tuple):
        reg_name, value = good_flag
        mask = sv.values(reg_name) == value
    else:
        mask = np.fromiter(
            (bool(good_flag(i)) for i in range(sv.amps.size)), bool, sv.amps.size
        )
    return GroverOperator(sv.amps, mask)


def pe_kernel(delta_turns: np.ndarray, t: int) -> np.ndarray:
    """Exact t-qubit phase-estimation outcome probability at offset delta.

    delta is the phase error in turns; the kernel is
    sin^2(pi N delta) / (N^2 sin^2(pi delta)) with N = 2^t, equal to 1 in the
    limit delta -> 0 (mod 1).
    """
    n = 1 << t
    d = np.mod(np.asarray(delta_turns, dtype=float) + 0.5, 1.0) - 0.5
    tiny = np.abs(np.sin(np.pi * d)) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.sin(np.pi * n * d) / (n * np.sin(np.pi * d))) ** 2
    out[tiny] = 1.0
    return out


def phase_distribution(
    u: np.ndarray | GroverOperator,
    psi0: np.ndarray,
    t: int,
    method: str = "auto",
    capacity: int = DEFAULT_CAPACITY,
) -> np.ndarray:
    """Exact outcome distribution of t-qubit phase estimation of U on psi0.

    "materialized" builds the joint precision+system state and applies the
    inverse QFT; "analytic" expands psi0 in U's eigenbasis and sums the
    per-eigenphase kernels.  Both are exact and agree; "auto" materializes
    when the joint register fits the capacity.
    """
    mat = u.matrix if isinstance(u, GroverOperator) else np.asarray(u)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    dim = psi0.size
    if mat.shape != (dim, dim):
        raise QsimError("unitary and state dimensions do not match")
    q = int(round(math.log2(dim)))
    if method == "auto":
        method = "materialized" if t + q <= capacity else "analytic"

    n = 1 << t
    if method == "materialized":
        if t + q > capacity:
            raise CapacityError(
                f"phase estimation needs {t + q} qubits, capacity is {capacity}"
            )
        # Joint state after the controlled powers: (1/sqrt(N)) sum_x |x> U^x |psi0>.
        block = np.empty((n, dim), dtype=np.complex128)
        block[0] = psi0 / math.sqrt(n)
        for x in range(1, n):
            block[x] = mat @ block[x - 1]
        # Inverse QFT on the precision register: out[y] = sum_x e^{-2pi i xy/N} in[x] / sqrt(N)
        block = np.fft.fft(block, axis=0) / math.sqrt(n)
        probs = np.sum(np.abs(block) ** 2, axis=1)
    elif method == "analytic":
        tri, vecs = scipy.linalg.schur(mat, output="complex")
        phases = np.mod(np.angle(np.diag(tri)) / (2.0 * math.pi), 1.0)
        weights = np.abs(vecs.conj().T @ psi0) ** 2
        ys = np.arange(n)
        probs = np.zeros(n)
        for w, om in zip(weights, phases):
            if w > 1e-15:
                probs += w * pe_kernel(om - ys / n, t)
    else:
        raise QsimError(f"unknown phase-estimation method {method!r}")
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise QsimError(f"phase distribution sums to {total}")
    return probs / total


def ae_mixture(theta: float, t: int) -> np.ndarray:
    """Outcome distribution of amplitude estimation at angle theta, literally.

    The prepared state splits evenly across the two Grover eigenvectors with
    eigenphases +-2*theta, so the precision register sees an equal mixture of
    the two phase-estimation kernels.
    """
    n = 1 << t
    ys = np.arange(n)
    omega = theta / math.pi  # eigenphase 2*theta in turns
    probs = 0.5 * pe_kernel(omega - ys / n, t) + 0.5 * pe_kernel(-omega - ys / n, t)
    return probs / probs.sum()


# Angles closer than this to the outcome grid pi*y/2^t take the literal law:
# there a closed-form denominator vanishes.
_GRID_TOL = 1e-6


def ae_distribution(theta: float | np.ndarray, t: int) -> np.ndarray:
    """Outcome distribution of amplitude estimation, one row per angle.

    With N = 2^t, both kernels of :func:`ae_mixture` share the numerator
    sin^2(N*theta), which cancels on normalising, so the law is
    p_y ~ 1/sin^2(theta - pi*y/N) + 1/sin^2(theta + pi*y/N).  The sines
    come from per-call cos/sin tables of pi*y/N, with no transcendental per
    element.  Angles within ``_GRID_TOL`` of the grid, where a sine vanishes,
    take :func:`ae_mixture`'s row instead.  A scalar theta gives one row of N
    probabilities, an array of angles a (len, N) array.
    """
    n = 1 << t
    angles = np.atleast_1d(np.asarray(theta, dtype=float))
    on_grid = np.abs(angles - math.pi * np.rint(angles * n / math.pi) / n) < _GRID_TOL
    arc = math.pi * np.arange(n) / n
    so_cy = np.sin(angles)[:, None] * np.cos(arc)
    co_sy = np.cos(angles)[:, None] * np.sin(arc)
    with np.errstate(divide="ignore", invalid="ignore"):
        law = 1.0 / (so_cy - co_sy) ** 2 + 1.0 / (so_cy + co_sy) ** 2
        law /= law.sum(axis=1, keepdims=True)
    for row in np.flatnonzero(on_grid):
        law[row] = ae_mixture(float(angles[row]), t)
    return law if np.ndim(theta) else law[0]


def theta_from_outcome(y: int, t: int) -> float:
    """Fold a phase-register outcome into the estimated angle in [0, pi/2]."""
    n = 1 << t
    yf = min(int(y) % n, n - int(y) % n)
    return math.pi * yf / n


def phase_estimate(
    u: np.ndarray | GroverOperator,
    t: int,
    psi0: np.ndarray,
    rng: np.random.Generator,
    shots: int = 1,
    method: str = "auto",
    ledger: QueryLedger | None = None,
    charge: Mapping[str, int] = MappingProxyType({"controlled_u": 1}),
    capacity: int = DEFAULT_CAPACITY,
) -> np.ndarray:
    """Sample phase-register outcomes y in [0, 2^t).

    Each estimate makes 2^t - 1 controlled-U applications; a ``ledger`` is
    charged every counter of ``charge`` times their total.
    """
    if t < 1:
        raise QsimError("phase estimation needs at least one precision qubit")
    probs = phase_distribution(u, psi0, t, method=method, capacity=capacity)
    if ledger is not None:
        ledger.charge_many(charge, ((1 << t) - 1) * shots)
    return rng.choice(probs.size, size=shots, p=probs)
