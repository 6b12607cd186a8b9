"""Rigid convexity detection and LMI representations of plane curves."""

from .errors import (
    DegreeZeroError,
    DeterminantMismatchError,
    DimensionMismatchError,
    IdenticallyZeroResultantError,
    OriginOnCurveError,
    PolyParseError,
    RigidConvexError,
    SingularCubicError,
    UnknownVariableError,
)
from .bezout import (
    Parametrization,
    bezout_matrix,
    pencil_from_param,
    rigid_at_origin,
    verify_pencil_det,
)
from .circlepsd import (
    CircleVerdict,
    MatrixPoly,
    SdpProblem,
    build_sdp,
    hermite_psd,
    psd_on_circle,
    verify_spectral_factor,
    write_sdpa,
)
from .cubicrepr import cubic_representations, hessian, hessian_det, homogenize
from .hermite import hermite_matrix, line_substitute, newton_sums
from .locate import (
    boundary_points,
    certify_psd_point,
    critical_points,
    find_interior_point,
    resultant_elim_x1,
)
from .polycore import (
    Pencil,
    Poly,
    TrigMatrix,
    TrigPoly,
    UniPoly,
    parse_poly,
)

__version__ = "0.1.0"

__all__ = [
    "Poly", "UniPoly", "TrigPoly", "TrigMatrix", "Pencil",
    "parse_poly",
    "hermite_matrix", "line_substitute", "newton_sums",
    "psd_on_circle", "hermite_psd", "build_sdp", "write_sdpa",
    "verify_spectral_factor", "CircleVerdict", "SdpProblem", "MatrixPoly",
    "Parametrization", "bezout_matrix", "pencil_from_param",
    "verify_pencil_det", "rigid_at_origin",
    "resultant_elim_x1", "critical_points", "boundary_points",
    "certify_psd_point", "find_interior_point",
    "homogenize", "hessian", "hessian_det", "cubic_representations",
    "RigidConvexError", "PolyParseError", "UnknownVariableError",
    "OriginOnCurveError", "DegreeZeroError", "DimensionMismatchError",
    "DeterminantMismatchError", "IdenticallyZeroResultantError",
    "SingularCubicError",
    "__version__",
]
