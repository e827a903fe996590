"""Exact-arithmetic toolkit for generalized bent functions Z_p^n -> Z_q."""

from .cyclotomic import (
    CycInt,
    conj,
    cyclotomic_polynomial,
    gauss_sqrt,
    norm_sq,
    parse_cycint,
    promote,
    root,
    sqrt_p_power,
)
from .errors import (
    ExactDivisionError,
    FunctionFormatError,
    InternalConsistencyError,
    ModulusMismatchError,
)
from .gbfunc import (
    ComponentTuple,
    FunctionDoc,
    GBFunction,
    PAryFunction,
    all_points,
    combination_tables,
    combine,
    compose,
    digits,
    function_to_text,
    index_point,
    load_function,
    parse_function_text,
    point_index,
    save_function,
)
from .transform import (
    GammaTable,
    Spectrum,
    gamma_general,
    gamma_product,
    gamma_table,
    inverse_wht,
    spectrum_records,
    wht_composed,
    wht_fast,
    wht_naive,
    wht_pary_fast,
)
from .classify import (
    DualCertificate,
    GbentReport,
    RegularityReport,
    RowCriterionReport,
    RowDecomp,
    SpectralForm,
    SpectralFormReport,
    component_row_table,
    expected_alphas,
    hadamard_row,
    hadamard_row_criterion,
    is_gbent,
    regularity,
    row_decomp,
    spectral_form,
    weak_regularity_certificate,
)
from .construct import (
    AffineSpec,
    MaioranaSpec,
    build_maiorana,
    built_function_doc,
    construction_to_text,
    enumerate_pary_bent,
    example_maiorana_q21,
    example_maiorana_q27,
    load_construction,
    parse_construction_text,
    permute_digits,
    quadratic_sweep,
    restrict_digits,
)

__version__ = "0.1.0"
