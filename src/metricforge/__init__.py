"""Positive-definite metric operators for pseudo-Hermitian Hamiltonians.

Constructs, validates and applies metric operators m with m H = H^dagger m
for finite-dimensional pseudo-Hermitian (including PT-symmetric)
Hamiltonians, via two routes: the spectral sum over left eigenvectors and
the projector-based assembly from a reference metric.  Ships three worked
model families, phase classification with exceptional-point location,
metric-aware time evolution and entangled-state discrimination, and a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    BrokenPhase,
    DefectiveMatrix,
    DefectiveSystem,
    InvalidParams,
    MetricForgeError,
    NoBracket,
    NoConvergence,
    NotHermitian,
    NotPositive,
    SingularMatrix,
)
from .linalg import (
    EigenPair,
    defect_indicator,
    eigendecompose,
    hermitian_spectrum,
    inverse,
)
from .metric import (
    BiorthSystem,
    DasConstruction,
    MetricComparison,
    MetricOperator,
    ValidityReport,
    biorthonormalize,
    check_pseudo_hermitian,
    compare_metrics,
    das_metric,
    metric_inner_product,
    spectral_metric,
    validate_metric,
)
from .models import (
    DiracParams,
    JCParams,
    ModelInstance,
    PTParams,
    build,
    dirac_scalar,
    jc_doublet,
    jc_full,
    pt_matrix,
)
from .phase import PhaseDiagram, PhasePoint, classify, find_exceptional, sweep
from .dynamics import (
    DiscriminationReport,
    EntangledPair,
    EvolutionRecord,
    assemble_discrimination_metric,
    build_entangled_pair,
    discriminate,
    evolve,
    growth_rate,
    orthogonality_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
