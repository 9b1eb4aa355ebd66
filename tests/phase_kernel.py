"""The t-qubit phase-estimation kernel, the tests' reference for the
amplitude-estimation outcome law.

``qsim.ae_distribution`` evaluates the same kernel in a form that takes its
numerator once per angle; this is the textbook form, evaluated directly.
"""

import numpy as np


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
