import math

import numpy as np
import pytest

from qlof.ledger import QueryLedger
from qlof.qsim import (
    CapacityError,
    QsimError,
    RegisterOverlapError,
    StateVector,
    ValueRangeError,
    ae_distribution,
    apply_oracle,
    controlled_value_rotation,
    grover_operator,
    measure,
    pe_kernel,
    phase_distribution,
    phase_estimate,
    prepare_uniform,
    theta_from_outcome,
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
    apply_oracle(sv, lambda x: 0, "x", "y")
    assert np.allclose(sv.amps, before)
    # f = 1 with empty-ish input dependence acts as X on the out qubit
    apply_oracle(sv, lambda x: 1, "x", "y")
    assert np.allclose(sv.probabilities("y"), [0.0, 1.0])


def test_apply_oracle_involution_and_ledger():
    sv = StateVector([("x", 3), ("out", 2)])
    prepare_uniform(sv, "x", 8)
    led = QueryLedger()
    before = sv.amps.copy()
    apply_oracle(sv, lambda x: (x * 3) % 4, "x", "out", ledger=led, charge={"f": 1})
    assert not np.allclose(sv.amps, before)
    apply_oracle(sv, lambda x: (x * 3) % 4, "x", "out", ledger=led, charge={"f": 1})
    assert np.allclose(sv.amps, before)  # XOR semantics: applying twice restores
    assert led.get("f") == 2
    sv.check_norm()


def test_apply_oracle_multi_input_and_overlap():
    sv = StateVector([("a", 2), ("b", 2), ("out", 3)])
    prepare_uniform(sv, "a", 4)
    prepare_uniform(sv, "b", 4)
    apply_oracle(sv, lambda a, b: (a + b) % 8, ["a", "b"], "out")
    sv.check_norm()
    with pytest.raises(RegisterOverlapError):
        apply_oracle(sv, lambda a: a, ["a"], "a")


def test_apply_oracle_range_check():
    sv = StateVector([("x", 2), ("y", 1)])
    with pytest.raises(QsimError):
        apply_oracle(sv, lambda x: 2, "x", "y")


def test_rotation_extremes():
    sv = StateVector([("v", 2), ("anc", 1)])
    controlled_value_rotation(sv, "v", "anc", scale=4.0)  # v = 0 everywhere
    assert math.isclose(sv.probability("anc", 1), 1.0)

    sv = StateVector([("v", 2), ("anc", 1)])
    sv.amps[:] = 0.0
    sv.amps[3] = 1.0  # v = 3
    controlled_value_rotation(sv, "v", "anc", scale=3.0)  # v = scale stays |0>
    assert math.isclose(sv.probability("anc", 0), 1.0)


def test_rotation_uniform_example():
    # Uniform over {0..3}, scale 4, linear: P(anc=0) = (0+1+4+9)/64
    sv = StateVector([("v", 2), ("anc", 1)])
    prepare_uniform(sv, "v", 4)
    controlled_value_rotation(sv, "v", "anc", scale=4.0)
    assert math.isclose(sv.probability("anc", 0), 14.0 / 64.0)


def test_rotation_sqrt_mode():
    sv = StateVector([("v", 2), ("anc", 1)])
    prepare_uniform(sv, "v", 4)
    controlled_value_rotation(sv, "v", "anc", scale=4.0, mode="sqrt")
    # P(anc=0) = mean(v/4) = (0+1+2+3)/16
    assert math.isclose(sv.probability("anc", 0), 6.0 / 16.0)


def test_rotation_range_error_and_padding_skip():
    sv = StateVector([("v", 2), ("anc", 1)])
    sv.amps[:] = 0.0
    sv.amps[2] = 1.0
    with pytest.raises(ValueRangeError):
        controlled_value_rotation(sv, "v", "anc", scale=1.0)
    # Unpopulated huge values are ignored: only v=1 is occupied here.
    sv2 = StateVector([("v", 2), ("anc", 1)])
    prepare_uniform(sv2, "v", 2)
    controlled_value_rotation(sv2, "v", "anc", scale=1.0)
    assert math.isclose(sv2.probability("anc", 0), 0.5)


def test_rotation_requires_fresh_ancilla():
    sv = StateVector([("v", 1), ("anc", 1)])
    controlled_value_rotation(sv, "v", "anc", scale=2.0)
    sv.amps[:] = [0.0, 0.0, 0.0, 1.0]
    with pytest.raises(QsimError):
        controlled_value_rotation(sv, "v", "anc", scale=2.0)


def _amp_preparer(a: float):
    theta = math.asin(math.sqrt(a))

    def prepare() -> StateVector:
        sv = StateVector([("q", 1)])
        sv.amps = np.array([math.sin(theta), math.cos(theta)], dtype=complex)
        return sv

    return prepare


def test_grover_operator_eigenphases():
    # a = 1/2 -> eigenphases +-pi/2
    op = grover_operator(_amp_preparer(0.5), ("q", 0))
    ev = np.sort(np.angle(np.linalg.eigvals(op.matrix)))
    assert np.allclose(ev, [-math.pi / 2, math.pi / 2], atol=1e-12)
    assert math.isclose(op.theta, math.pi / 4)

    # a = 0: identity on the prepared state
    op0 = grover_operator(_amp_preparer(0.0), ("q", 0))
    assert np.allclose(op0.matrix @ op0.psi, op0.psi)

    # a = 1: eigenphase pi on the prepared state
    op1 = grover_operator(_amp_preparer(1.0), ("q", 0))
    assert np.allclose(op1.matrix @ op1.psi, -op1.psi)


def test_grover_operator_random_eigenphase_match():
    rng = np.random.default_rng(5)
    for a in rng.random(5):
        op = grover_operator(_amp_preparer(float(a)), ("q", 0))
        phases = np.sort(np.angle(np.linalg.eigvals(op.matrix)))
        assert np.allclose(phases, [-2 * op.theta, 2 * op.theta], atol=1e-10)


def test_grover_squared_is_minus_identity_at_half():
    op = grover_operator(_amp_preparer(0.5), ("q", 0))
    twice = op.matrix @ op.matrix @ op.psi
    assert np.allclose(twice, -op.psi, atol=1e-12)


def test_grover_apply_matches_matrix():
    rng = np.random.default_rng(6)
    op = grover_operator(_amp_preparer(0.3), ("q", 0))
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.allclose(op.apply(v), op.matrix @ v)


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
    p = phase_distribution(u, psi, 3, method="materialized")
    assert math.isclose(p[0], 1.0, abs_tol=1e-12)
    # Eigenphase pi -> y = 4 at t = 3.
    u = np.diag([-1.0 + 0j, 1.0])
    p = phase_distribution(u, psi, 3, method="materialized")
    assert math.isclose(p[4], 1.0, abs_tol=1e-12)


def test_phase_distribution_third_turn():
    u = np.diag([np.exp(2j * np.pi / 3), 1.0])
    psi = np.array([1.0, 0.0], dtype=complex)
    p = phase_distribution(u, psi, 5, method="materialized")
    assert int(np.argmax(p)) == 11  # round(32/3)
    assert p[10] + p[11] >= 8 / math.pi**2


def test_phase_paths_agree_on_grover_operators():
    rng = np.random.default_rng(7)
    for a in rng.random(6):
        op = grover_operator(_amp_preparer(float(a)), ("q", 0))
        for t in (3, 5):
            pm = phase_distribution(op.matrix, op.psi, t, method="materialized")
            pa = phase_distribution(op.matrix, op.psi, t, method="analytic")
            pl = ae_distribution(op.theta, t)
            assert np.allclose(pm, pa, atol=1e-10)
            assert np.allclose(pm, pl, atol=1e-10)


def test_phase_paths_agree_on_random_unitaries():
    # Degenerate or not, the Schur-based path must match the materialized one.
    rng = np.random.default_rng(17)
    for _ in range(4):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi0 /= np.linalg.norm(psi0)
        for t in (3, 5):
            pm = phase_distribution(u, psi0, t, method="materialized")
            pa = phase_distribution(u, psi0, t, method="analytic")
            assert np.allclose(pm, pa, atol=1e-9)


def test_phase_estimate_sampling_and_ledger():
    rng = np.random.default_rng(8)
    led = QueryLedger()
    u = np.diag([-1.0 + 0j, 1.0])
    psi = np.array([1.0, 0.0], dtype=complex)
    ys = phase_estimate(u, 3, psi, rng, shots=10, ledger=led, charge={"controlled_u": 1})
    assert np.all(ys == 4)
    assert led.get("controlled_u") == 7 * 10


def test_phase_estimate_capacity_guard():
    u = np.eye(2, dtype=complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(CapacityError):
        phase_distribution(u, psi, 16, method="materialized")
    # auto falls back to the analytic path
    p = phase_distribution(u, psi, 16, method="auto")
    assert math.isclose(p[0], 1.0, abs_tol=1e-9)


def test_theta_from_outcome_folding():
    assert theta_from_outcome(0, 4) == 0.0
    assert math.isclose(theta_from_outcome(8, 4), math.pi / 2)
    assert math.isclose(theta_from_outcome(12, 4), theta_from_outcome(4, 4))


def test_measure_determinism_and_marginals():
    sv = StateVector([("x", 2)])
    prepare_uniform(sv, "x", 4)
    a = measure(sv, "x", 4096, np.random.default_rng(3))
    b = measure(sv, "x", 4096, np.random.default_rng(3))
    assert np.array_equal(a, b)
    counts = np.bincount(a, minlength=4)
    sigma = math.sqrt(4096 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 1024) <= 5 * sigma)

    basis = StateVector([("x", 2)])
    basis.amps[:] = 0.0
    basis.amps[2] = 1.0
    out = measure(basis, "x", 16, np.random.default_rng(0))
    assert np.all(out == 2)
