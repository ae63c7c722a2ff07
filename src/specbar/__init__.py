"""Spectral computations for half-line Schrodinger operators with dissipative barriers."""

from .core import (
    BarrierProblem,
    ConstExpr,
    DomainError,
    PeriodicTail,
    Piece,
    PotentialModel,
    Rectangle,
    Sheet,
    SinExpr,
    SpecbarError,
    ZeroTail,
    eval_potential,
    load_model,
    model_from_dict,
    model_to_dict,
    principal_sqrt,
    save_model,
    sheeted_sqrt,
)
from .rootfinder import (
    AnalyticFunctionHandle,
    BoundaryZeroError,
    ClusterUnresolvedError,
    QuadratureError,
    Root,
    RootSet,
    find_zeros,
    winding_number,
)
from .sturm import (
    CharacteristicContext,
    SolutionSample,
    characteristic,
    eigenvalues,
    exterior_solution,
    interior_solution,
    limit_eigenvalues,
    reference_characteristic,
    resonances,
)
from .floquet import (
    BandStructure,
    FloquetData,
    Monodromy,
    bands,
    embedded_resonances,
    essential_spectrum,
    floquet_data,
    floquet_solution,
    monodromy,
    sp_zeros,
)
from .enclosures import (
    gamma_a_contains,
    gamma_b_contains,
    l1_lambda_limit,
    we_strip_contains,
)
from .fdtrunc import (
    ClassifiedSpectrum,
    TridiagonalOperator,
    build_matrix,
    classify_spectrum,
    eigenvalues_dense,
)
from .harness import (
    ConvergenceRecord,
    RateFit,
    fit_rate,
    run_sweep,
)

__version__ = "0.1.0"
