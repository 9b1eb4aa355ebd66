import math

import numpy as np
import pytest
from phase_kernel import pe_kernel

from qlof.qsim import (
    CapacityError,
    QsimError,
    RegisterOverlapError,
    StateVector,
    ValueRangeError,
    ae_mixture,
    apply_oracle,
    controlled_value_rotation,
    grover_operator,
    phase_distribution,
    prepare_uniform,
)


def test_register_layout_and_capacity():
    sv = StateVector([("a", 2), ("b", 3)])
    assert sv.n_qubits == 5
    assert sv.reg("a").offset == 0 and sv.reg("b").offset == 2
    with pytest.raises(CapacityError):
        StateVector([("big", 17)])
    with pytest.raises(QsimError):
        StateVector([("a", 2), ("a", 1)])


def test_prepare_uniform_arbitrary_domain():
    sv = StateVector([("x", 3)])
    prepare_uniform(sv, "x", 5)
    p = sv.probabilities("x")
    assert np.allclose(p[:5], 0.2) and np.allclose(p[5:], 0.0)
    with pytest.raises(QsimError):
        prepare_uniform(sv, "x", 5)  # no longer |0>


def test_apply_oracle_identity_and_not():
    sv = StateVector([("x", 2), ("y", 1)])
    prepare_uniform(sv, "x", 4)
    before = sv.amps.copy()
    apply_oracle(sv, np.zeros(4, dtype=int), "x", "y")
    assert np.allclose(sv.amps, before)
    # f = 1 with empty-ish input dependence acts as X on the out qubit
    apply_oracle(sv, np.ones(4, dtype=int), "x", "y")
    assert np.allclose(sv.probabilities("y"), [0.0, 1.0])


def test_apply_oracle_involution():
    sv = StateVector([("x", 3), ("out", 2)])
    prepare_uniform(sv, "x", 8)
    before = sv.amps.copy()
    apply_oracle(sv, np.arange(8) * 3 % 4, "x", "out")
    assert not np.allclose(sv.amps, before)
    apply_oracle(sv, np.arange(8) * 3 % 4, "x", "out")
    assert np.allclose(sv.amps, before)  # XOR semantics: applying twice restores
    sv.check_norm()


def test_apply_oracle_multi_input_and_overlap():
    sv = StateVector([("a", 2), ("b", 2), ("out", 3)])
    prepare_uniform(sv, "a", 4)
    prepare_uniform(sv, "b", 4)
    # table[a, b]: one axis per input register, in the order given.
    apply_oracle(sv, np.add.outer(np.arange(4), 2 * np.arange(4)) % 8, ["a", "b"], "out")
    sv.check_norm()
    populated = np.abs(sv.amps) > 0
    a, b, out = (sv.values(nm)[populated] for nm in ("a", "b", "out"))
    assert populated.sum() == 16 and np.array_equal(out, (a + 2 * b) % 8)
    with pytest.raises(RegisterOverlapError):
        apply_oracle(sv, np.arange(4), ["a"], "a")


def test_apply_oracle_range_check():
    sv = StateVector([("x", 2), ("y", 1)])
    with pytest.raises(QsimError):
        apply_oracle(sv, np.full(4, 2), "x", "y")
    with pytest.raises(QsimError):
        apply_oracle(sv, np.zeros(2, dtype=int), "x", "y")  # does not cover x


VALUES = np.arange(4.0)  # a value register read as the integer it holds


def test_rotation_extremes():
    sv = StateVector([("v", 2), ("anc", 1)])
    controlled_value_rotation(sv, "v", "anc", VALUES, scale=4.0)  # v = 0 everywhere
    assert math.isclose(sv.probability("anc", 1), 1.0)

    sv = StateVector([("v", 2), ("anc", 1)])
    sv.amps[:] = 0.0
    sv.amps[3] = 1.0  # v = 3
    controlled_value_rotation(sv, "v", "anc", VALUES, scale=3.0)  # v = scale stays |0>
    assert math.isclose(sv.probability("anc", 0), 1.0)


def test_rotation_uniform_example():
    # Uniform over {0..3}, scale 4, linear: P(anc=0) = (0+1+4+9)/64
    sv = StateVector([("v", 2), ("anc", 1)])
    prepare_uniform(sv, "v", 4)
    controlled_value_rotation(sv, "v", "anc", VALUES, scale=4.0)
    assert math.isclose(sv.probability("anc", 0), 14.0 / 64.0)


def test_rotation_sqrt_mode():
    sv = StateVector([("v", 2), ("anc", 1)])
    prepare_uniform(sv, "v", 4)
    controlled_value_rotation(sv, "v", "anc", VALUES, scale=4.0, mode="sqrt")
    # P(anc=0) = mean(v/4) = (0+1+2+3)/16
    assert math.isclose(sv.probability("anc", 0), 6.0 / 16.0)


def test_rotation_range_error_and_padding_skip():
    sv = StateVector([("v", 2), ("anc", 1)])
    sv.amps[:] = 0.0
    sv.amps[2] = 1.0
    with pytest.raises(ValueRangeError):
        controlled_value_rotation(sv, "v", "anc", VALUES, scale=1.0)
    with pytest.raises(ValueRangeError, match="v >= 0"):
        controlled_value_rotation(sv, "v", "anc", -VALUES, scale=1.0, mode="sqrt")
    # Unpopulated huge values are ignored: only v in {0, 1} is occupied
    # here, and a values array may stop short of the padding states.
    for values in ([0.0, 1.0, 50.0, -50.0], [0.0, 1.0]):
        sv2 = StateVector([("v", 2), ("anc", 1)])
        prepare_uniform(sv2, "v", 2)
        controlled_value_rotation(sv2, "v", "anc", values, scale=1.0)
        assert math.isclose(sv2.probability("anc", 0), 0.5)


def test_rotation_requires_fresh_ancilla():
    sv = StateVector([("v", 1), ("anc", 1)])
    controlled_value_rotation(sv, "v", "anc", VALUES, scale=2.0)
    sv.amps[:] = [0.0, 0.0, 0.0, 1.0]
    with pytest.raises(QsimError):
        controlled_value_rotation(sv, "v", "anc", VALUES, scale=2.0)


def _amp_state(a: float) -> StateVector:
    """One qubit whose |0> branch has probability a."""
    theta = math.asin(math.sqrt(a))
    sv = StateVector([("q", 1)])
    sv.amps = np.array([math.sin(theta), math.cos(theta)], dtype=complex)
    return sv


def test_grover_operator_eigenphases():
    # a = 1/2 -> eigenphases +-pi/2
    op = grover_operator(_amp_state(0.5), ("q", 0))
    ev = np.sort(np.angle(np.linalg.eigvals(op.matrix)))
    assert np.allclose(ev, [-math.pi / 2, math.pi / 2], atol=1e-12)
    assert math.isclose(op.theta, math.pi / 4)

    # a = 0: identity on the prepared state
    op0 = grover_operator(_amp_state(0.0), ("q", 0))
    assert np.allclose(op0.matrix @ op0.psi, op0.psi)

    # a = 1: eigenphase pi on the prepared state
    op1 = grover_operator(_amp_state(1.0), ("q", 0))
    assert np.allclose(op1.matrix @ op1.psi, -op1.psi)


def test_grover_operator_random_eigenphase_match():
    rng = np.random.default_rng(5)
    for a in rng.random(5):
        op = grover_operator(_amp_state(float(a)), ("q", 0))
        phases = np.sort(np.angle(np.linalg.eigvals(op.matrix)))
        assert np.allclose(phases, [-2 * op.theta, 2 * op.theta], atol=1e-10)


def test_grover_squared_is_minus_identity_at_half():
    op = grover_operator(_amp_state(0.5), ("q", 0))
    twice = op.matrix @ op.matrix @ op.psi
    assert np.allclose(twice, -op.psi, atol=1e-12)


def test_grover_apply_matches_matrix():
    rng = np.random.default_rng(6)
    op = grover_operator(_amp_state(0.3), ("q", 0))
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    # Q v = 2|psi><psi|F v> - F v with F = I - 2 P_good, the iteration the
    # exact Grover backend runs.
    flipped = np.where(op.good_mask, -v, v)
    assert np.allclose(op.matrix @ v, 2.0 * op.psi * np.vdot(op.psi, flipped) - flipped)


def test_pe_kernel_normalizes():
    for t in (2, 4, 6):
        ys = np.arange(1 << t)
        for om in (0.0, 0.31, 0.5, 0.9, 1.0 / 3.0):
            p = pe_kernel(om - ys / (1 << t), t)
            assert np.all(p >= 0)
            assert math.isclose(p.sum(), 1.0, abs_tol=1e-9)


def test_phase_distribution_exact_phases():
    # Eigenphase 0 -> y = 0 always.
    u = np.eye(2, dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    p = phase_distribution(u, psi, 3)
    assert math.isclose(p[0], 1.0, abs_tol=1e-12)
    # Eigenphase pi -> y = 4 at t = 3.
    u = np.diag([-1.0 + 0j, 1.0])
    p = phase_distribution(u, psi, 3)
    assert math.isclose(p[4], 1.0, abs_tol=1e-12)


def test_phase_distribution_third_turn():
    u = np.diag([np.exp(2j * np.pi / 3), 1.0])
    psi = np.array([1.0, 0.0], dtype=complex)
    p = phase_distribution(u, psi, 5)
    assert int(np.argmax(p)) == 11  # round(32/3)
    assert p[10] + p[11] >= 8 / math.pi**2


def test_phase_paths_agree_on_grover_operators():
    # Statevector phase estimation of a Grover operator is the closed-form
    # amplitude-estimation law, bin for bin.
    rng = np.random.default_rng(7)
    for a in rng.random(6):
        op = grover_operator(_amp_state(float(a)), ("q", 0))
        for t in (3, 5):
            pm = phase_distribution(op.matrix, op.psi, t)
            assert np.allclose(pm, ae_mixture(op.theta, t), atol=1e-10)


def eigenbasis_law(u, psi0, t):
    """Phase estimation of U on psi0 as the sum of psi0's eigenbasis weights
    times the kernel at each eigenphase: an independent reference."""
    phases, vecs = np.linalg.eig(u)
    # Distinct eigenvalues, as a random unitary has: the unit eigenvectors
    # are then orthonormal, and the weights are psi0's squared projections.
    assert np.allclose(vecs.conj().T @ vecs, np.eye(len(phases)), atol=1e-10)
    turns = np.mod(np.angle(phases) / (2.0 * math.pi), 1.0)
    weights = np.abs(vecs.conj().T @ psi0) ** 2
    ys = np.arange(1 << t) / (1 << t)
    return sum(w * pe_kernel(om - ys, t) for w, om in zip(weights, turns))


def test_phase_paths_agree_on_random_unitaries():
    rng = np.random.default_rng(17)
    for _ in range(4):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        for t in (3, 5):
            pm = phase_distribution(u, psi0, t)
            assert np.allclose(pm, eigenbasis_law(u, psi0, t), atol=1e-9)


def test_phase_estimate_capacity_guard():
    u = np.eye(2, dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    p = phase_distribution(u, psi, 15)  # 16 qubits: exactly the capacity
    assert math.isclose(p[0], 1.0, abs_tol=1e-9)
    with pytest.raises(CapacityError):
        phase_distribution(u, psi, 16)
