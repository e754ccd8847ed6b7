"""plemelj: Gaussian-regularized Dirac delta machinery on complex contours.

Computable pieces of the complex extension of the Dirac delta: the
Gaussian-regularized kernels and their closed form through the scaled
complementary error function, the wedge-shaped convergence domains of the
complex momentum plane, principal-value contour integration with circular
deformation around the origin, the extended Sokhotski-Plemelj functionals
acting on analytic test functions, and the tilted-real-line derivation with
its continuous argument function.
"""
from .special_functions import (
    BACKEND,
    OVERFLOW,
    erfc_complex,
    erfcx_scaled,
    is_overflow,
    wz_erfcx,
)
from .contours import (
    Arc,
    Contour,
    ContourError,
    Line,
    WedgeDomain,
    classify_point,
    deform_at_origin,
    path_in_domain,
    segment_path,
    tilted_segment,
)
from .kernels import (
    KernelResult,
    RegularizationSchedule,
    SingularInputError,
    TruncationError,
    direct_quadrature,
    j_closed_form,
    kernel_limit,
    kernel_limit_mirror,
)
from .functionals import (
    AdmissibilityError,
    DomainViolationError,
    FunctionalResult,
    OrientationError,
    TestFunction,
    overlap_delta,
    plemelj_delta,
    plemelj_minus,
    plemelj_plus,
    pv_contour,
    catalog_function,
)
from .tilted import (
    TiltedLine,
    TiltedResult,
    arg_limit,
    arg_regularized,
    tilted_plemelj,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "OVERFLOW", "erfc_complex", "erfcx_scaled", "is_overflow",
    "wz_erfcx",
    "Arc", "Contour", "ContourError", "Line", "WedgeDomain",
    "classify_point", "deform_at_origin", "path_in_domain", "segment_path",
    "tilted_segment",
    "KernelResult", "RegularizationSchedule", "SingularInputError",
    "TruncationError", "direct_quadrature", "j_closed_form", "kernel_limit",
    "kernel_limit_mirror",
    "AdmissibilityError", "DomainViolationError", "FunctionalResult",
    "OrientationError", "TestFunction", "overlap_delta", "plemelj_delta",
    "plemelj_minus", "plemelj_plus", "pv_contour", "catalog_function",
    "TiltedLine", "TiltedResult", "arg_limit", "arg_regularized",
    "tilted_plemelj",
    "__version__",
]
