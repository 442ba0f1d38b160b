"""Convertibility ordering of pure bipartite states from Schmidt spectra.

Decides deterministic (majorization) and stochastic (tail-ratio)
convertibility between states given by their Schmidt weights, generates
the analytic families whose members are mutually non-convertible, and
emits machine-checkable oscillation certificates for the non-convertible
pairs.
"""

from .errors import (
    ConditionViolated,
    EntOrderError,
    InvalidFamily,
    NonPositive,
    NotNormalized,
    OffsetNotFound,
    ParameterError,
    ParseError,
    QOutOfRange,
    TruncationUnsafe,
    ValidationError,
    WeightsIncrease,
    WindowTooSmall,
)
from .spectrum import (
    SchmidtSpectrum,
    build_spectrum,
    make_spectrum,
    safe_horizon,
    summary_stats,
    tail_function,
    vidal_conditions,
)
from .families import (
    AnalyticForm,
    discretize,
    eval_p,
    find_offset,
    psi_state,
    tmss,
    xi_state,
)
from .oscillation import (
    OscillationCertificate,
    TrendClass,
    TrendThresholds,
    incomparability_certificate,
    verify_certificate,
)
from .convertibility import (
    ComparisonReport,
    MonotoneEstimate,
    Verdict,
    estimate_r_bounds,
    locc_convertible,
    max_probability,
    slocc_decide,
)
from .fileio import emit_report, read_spectrum, write_spectrum

__version__ = "0.1.0"
