"""Nonlinear scattering in a tridiagonal (J-matrix) basis.

The package builds, for a quartic self-interaction projected on a Gaussian
radial basis, the product-linearization coupling matrix, the finite Green's
function of the truncated wave operator, and the unitary scattering matrix
S(E) = e^{2 i delta(E)}, together with a CSV scan front end.
"""

__version__ = "0.1.0"

from .nonlinear import (
    LambdaMatrix,
    ModelConfig,
    OmegaTransform,
    PositivityCertificateError,
    lambda_matrix,
    omega_transform,
    wave_operator,
    weight,
)
from .orthopoly import gauss_laguerre_rule, jacobi_matrix, linearization_table
from .reference import (
    BasisParams,
    RecurrenceOverflowError,
    basis_function,
    cosine_coefficients,
    h0_matrix,
    sine_coefficients,
)
from .scattering import (
    DegenerateEnergyError,
    PoleError,
    ScatterPoint,
    green_corner_determinant,
    green_corner_spectral,
    s_matrix,
)

__all__ = [
    "__version__",
    "BasisParams",
    "DegenerateEnergyError",
    "LambdaMatrix",
    "ModelConfig",
    "OmegaTransform",
    "PoleError",
    "PositivityCertificateError",
    "RecurrenceOverflowError",
    "ScatterPoint",
    "basis_function",
    "cosine_coefficients",
    "gauss_laguerre_rule",
    "green_corner_determinant",
    "green_corner_spectral",
    "h0_matrix",
    "jacobi_matrix",
    "lambda_matrix",
    "linearization_table",
    "omega_transform",
    "s_matrix",
    "sine_coefficients",
    "wave_operator",
    "weight",
]
