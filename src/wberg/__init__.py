"""Weighted Bergman hypercontraction toolkit.

Weight-sequence series calculus, positivity classification of commuting
operator tuples, dilations onto truncated weighted Bergman spaces over the
polydisc, and characteristic functions, with numerically checkable residuals
for every structural identity.
"""

from .bergman import (
    TruncatedSpace,
    multishift_purity_and_positivity,
    multishift_tuple,
    shift_matrix,
)
from .charfn import (
    CharFunction,
    CharTriple,
    char_function,
    char_function_eval,
    coincidence_verify,
    key_identity_check,
    partial_isometry_check,
    rho_sequence,
    uniqueness_unitary,
)
from .dilation import (
    DilationResult,
    LambdaBlock,
    general_model,
    pure_dilation,
)
from .hyper import (
    DefectResult,
    OperatorTuple,
    two_parameter_monotonicity_check,
    defect_limit,
    defect_series,
    delta_power,
    equivalence_crosscheck,
    is_gamma_contractive,
    is_pure,
    is_W_hypercontraction,
    subtuple,
    subtuple_inheritance_check,
)
from .linalg import (
    Operator,
    PsdCertificate,
    complement_columns,
    complete_to_unitary,
    douglas_solve,
    hermitian_norm,
    psd_check,
    psd_sqrt,
    spectral_norm,
    threshold_norm,
)
from .series import (
    MultiWeightSpec,
    TruncatedSeries,
    WeightSpec,
    associated_series,
    check_properties,
    invert_series,
    quotient_coeffs,
    reciprocal_series,
    weight_values,
)

__version__ = "0.1.0"
