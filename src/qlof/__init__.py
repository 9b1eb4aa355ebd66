"""Quantum local-outlier-factor anomaly detection on simulable backends.

A statevector simulator and analytic outcome-law ("ledger") backend for the
three-step quantum LOF pipeline, a bit-exact classical LOF reference oracle,
reversible fixed-point arithmetic, and query-count instrumentation for
checking the algorithm's complexity claims empirically.
"""

from .dataset import (
    ConfigError,
    DataParseError,
    Dataset,
    DegenerateDataError,
    RunConfig,
    from_points,
    load_csv,
)
from .fixedpoint import (
    FixedPoint,
    FixedPointOverflowError,
    FormatMismatchError,
    encode,
    q_add,
    q_div,
    q_max,
    q_mul_add,
)
from .ledger import QueryLedger
from .lof import (
    LofReport,
    NeighborhoodTable,
    build_table,
    flag,
    lof_all,
)
from .pipeline import ErrorBudget, QuantumLofPipeline, RatioBoundError
from .primitives import (
    AmplitudeEstimate,
    CountEstimate,
    amplitude_estimate,
    amplitude_estimate_via_qpe,
    grover_collect,
    grover_search,
    kth_smallest,
    quantum_count,
    quantum_min,
)
from .qsim import CapacityError, GroverOperator, StateVector, grover_operator
from .synthetic import gaussian_clusters, random_dataset

__version__ = "0.1.0"
