"""Statevector reference circuits the closed-form laws are checked against.

No run path uses these: the pipeline samples amplitude estimation and
Grover search from their closed-form outcome laws (``qsim.ae_distribution``,
``primitives.ae_outcomes``).  The tests hold those laws to the circuits here:

* :func:`pe_kernel` -- the t-qubit phase-estimation kernel in its textbook
  form, evaluated directly;
* :func:`ae_mixture` -- the amplitude-estimation outcome law, literally: the
  equal mixture of the two Grover eigenbranches' kernels;
* :func:`apply_oracle` -- a classical function, given as its integer truth
  table, applied as the permutation unitary |a>|b> -> |a>|b XOR f(a)>;
* :class:`GroverOperator` / :func:`grover_operator` -- Q = (2|psi><psi| - I)
  (I - 2P_good) of a prepared state, with eigenphases +-2*theta where
  sin^2(theta) = P(good);
* :func:`phase_distribution` -- the exact outcome distribution of phase
  estimation, with the full precision register materialized and the inverse
  QFT applied;
* :func:`amplitude_estimate_via_qpe` -- one amplitude estimate sampled from
  the phase estimation of a prepared state's Grover operator.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from qlof.primitives import AmplitudeEstimate, ae_queries, folded_median
from qlof.qsim import (
    DEFAULT_CAPACITY,
    CapacityError,
    QsimError,
    RegisterOverlapError,
    StateVector,
    ae_distribution,
)


def pe_kernel(delta_turns: np.ndarray, t: int) -> np.ndarray:
    """Exact t-qubit phase-estimation outcome probability at offset delta.

    delta is the phase error in turns; the kernel is
    sin^2(pi N delta) / (N^2 sin^2(pi delta)) with N = 2^t, equal to 1 in the
    limit delta -> 0 (mod 1).  ``qsim.ae_distribution`` evaluates the same
    kernel in a form that takes its numerator once per angle.
    """
    n = 1 << t
    d = np.mod(np.asarray(delta_turns, dtype=float) + 0.5, 1.0) - 0.5
    tiny = np.abs(np.sin(np.pi * d)) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.sin(np.pi * n * d) / (n * np.sin(np.pi * d))) ** 2
    out[tiny] = 1.0
    return out


def ae_mixture(theta: float, t: int) -> np.ndarray:
    """Outcome distribution of amplitude estimation at angle theta, literally.

    The prepared state splits evenly across the two Grover eigenvectors with
    eigenphases +-2*theta, so the precision register sees an equal mixture of
    the two phase-estimation kernels.
    """
    ys = np.arange(1 << t)
    probs = 0.5 * ae_distribution(theta, t, ys) + 0.5 * ae_distribution(-theta, t, ys)
    return probs / probs.sum()


def apply_oracle(
    sv: StateVector,
    table: np.ndarray,
    in_regs: str | Sequence[str],
    out_reg: str,
) -> StateVector:
    """Apply |in>|out> -> |in>|out XOR f(in)> as a permutation unitary.

    ``table`` is f's integer truth table, one axis per input register in
    the order of ``in_regs``, each as long as its register's dimension:
    f(a, b) is ``table[a, b]``.  Every entry must fit the output register.
    """
    if isinstance(in_regs, str):
        in_regs = [in_regs]
    if out_reg in in_regs:
        raise RegisterOverlapError(f"output register {out_reg!r} is also an input")
    out = sv.reg(out_reg)
    table = np.asarray(table)
    dims = tuple(sv.reg(nm).dim for nm in in_regs)
    if table.shape != dims:
        raise QsimError(f"oracle table of shape {table.shape} does not cover registers {dims}")
    bad = (table < 0) | (table >= out.dim)
    if bad.any():
        raise QsimError(f"oracle output {table[bad][0]} does not fit register {out_reg!r}")
    f_in = table[tuple(sv.values(nm) for nm in in_regs)].astype(np.int64)
    new = np.empty_like(sv.amps)
    new[np.arange(sv.amps.size) ^ (f_in << out.offset)] = sv.amps
    sv.amps = new
    sv.check_norm()
    return sv


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

    @property
    def matrix(self) -> np.ndarray:
        sign = np.where(self.good_mask, -1.0, 1.0)
        flip = np.diag(sign.astype(np.complex128))  # I - 2 P_good
        return 2.0 * np.outer(self.psi, self.psi.conj()) @ flip - flip


def grover_operator(sv: StateVector, good_flag: tuple[str, int]) -> GroverOperator:
    """Build the Grover operator of the prepared state ``sv`` whose good
    subspace is where register ``good_flag[0]`` holds the value
    ``good_flag[1]``."""
    reg_name, value = good_flag
    return GroverOperator(sv.amps, sv.values(reg_name) == value)


def phase_distribution(u: np.ndarray, psi0: np.ndarray, t: int) -> np.ndarray:
    """Exact outcome distribution of t-qubit phase estimation of U on psi0.

    Builds the joint precision+system state and applies the inverse QFT to
    the precision register; raises :class:`~qlof.qsim.CapacityError` when the
    joint register exceeds the simulator's qubit capacity.
    """
    mat = np.asarray(u)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    dim = psi0.size
    if mat.shape != (dim, dim):
        raise QsimError("unitary and state dimensions do not match")
    q = int(round(math.log2(dim)))
    if t + q > DEFAULT_CAPACITY:
        raise CapacityError(
            f"phase estimation needs {t + q} qubits, capacity is {DEFAULT_CAPACITY}"
        )
    n = 1 << t
    # Joint state after the controlled powers: (1/sqrt(N)) sum_x |x> U^x |psi0>.
    block = np.empty((n, dim), dtype=np.complex128)
    block[0] = psi0 / math.sqrt(n)
    for x in range(1, n):
        block[x] = mat @ block[x - 1]
    # Inverse QFT on the precision register: out[y] = sum_x e^{-2pi i xy/N} in[x] / sqrt(N)
    block = np.fft.fft(block, axis=0) / math.sqrt(n)
    probs = np.sum(np.abs(block) ** 2, axis=1)
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise QsimError(f"phase distribution sums to {total}")
    return probs / total


def amplitude_estimate_via_qpe(
    sv: StateVector,
    good_flag: tuple[str, int],
    t: int,
    rng: np.random.Generator,
) -> AmplitudeEstimate:
    """Full statevector route: build the Grover operator of the prepared
    state ``sv`` and sample one outcome of its phase estimation.
    Distribution-identical to ``primitives.amplitude_estimate`` at one
    repeat.
    """
    op = grover_operator(sv, good_flag)
    ys = rng.choice(1 << t, size=1, p=phase_distribution(op.matrix, op.psi, t))
    theta_hat = math.pi * int(folded_median(ys, t)) / (1 << t)
    return AmplitudeEstimate(theta_hat, math.sin(theta_hat) ** 2, ae_queries(t, 1))
