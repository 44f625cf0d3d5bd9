"""Exact and asymptotic counting of commuting permutation tuples.

The package computes the normalized counts N_ell(n) (commuting
ell-tuples in the symmetric group on n letters divided by n!) and their
relatives exactly through Euler-product expansion, assembles the full
saddle-point asymptotic expansions from L-series pole data at arbitrary
precision, and scans exact inequalities (log-concavity, Bessenrodt-Ono
products, log-convexity) over big-integer sequences.  Every layer has an
independent slower oracle: Hermite-normal-form enumeration for subgroup
counts, direct product expansion and the pentagonal recurrence for
series, brute-force permutation counting for small groups, and a
numeric saddle-point solver for the series coefficients.
"""

__version__ = "0.1.0"

from .arith import (
    ExponentSpec,
    PolygonalIndicator,
    Power,
    SubgroupCount,
    TableExponent,
    dirichlet_convolve,
    divisor_power_sum,
    evaluate_exponent,
    family_label,
    hnf_subgroup_count,
    is_polygonal,
    power_value_table,
    subgroup_count_table,
)
from .asymptotics import (
    AsymptoticExpansion,
    ComparisonRow,
    compare_exact_asym,
    estimate_B1,
    evaluate_expansion,
    expansion,
    expansion_one_pole,
    expansion_three_pole,
    expansion_two_pole,
)
from .inequalities import (
    ScanReport,
    bessenrodt_ono_scan,
    log_concavity_scan,
    log_convexity_scan,
    report_to_json,
)
from .lfunction import (
    LSeriesData,
    c_constants,
    dressed_residue,
    lf_data_for,
    lf_data_ntuple,
    lf_data_power,
)
from .oracles import (
    d_coefficients,
    lagrange_invert,
    multinomial,
    power_coefficient,
    recip_power_coeff,
    two_pole_K,
    two_pole_K_series,
    weighted_partitions,
)
from .precision import (
    PrecisionContext,
    bernoulli_fraction,
    euler_gamma,
    factorial_real,
    pi_real,
    zeta_int,
    zeta_nonpos,
    zeta_prime_int,
    zeta_prime_neg,
)
from .saddle import (
    SaddleExpansion,
    TruncPoly,
    curve_saddle_series,
    phi_deriv_eval,
    phi_eval,
    rho_numeric,
    rho_series_three_pole,
    saddle_series,
)
from .series import (
    BigIntSeq,
    brute_force_commuting,
    commuting_tuple_count,
    expand_product,
    expand_product_direct,
    factorial_scaled,
    ntuple_exponent,
    ntuple_sequence,
    pentagonal_p,
    seq_to_csv,
    seq_to_json,
    weighted_divisor_table,
)

__all__ = [
    "AsymptoticExpansion",
    "BigIntSeq",
    "ComparisonRow",
    "ExponentSpec",
    "LSeriesData",
    "PolygonalIndicator",
    "Power",
    "PrecisionContext",
    "SaddleExpansion",
    "ScanReport",
    "SubgroupCount",
    "TableExponent",
    "TruncPoly",
    "bernoulli_fraction",
    "bessenrodt_ono_scan",
    "brute_force_commuting",
    "c_constants",
    "commuting_tuple_count",
    "compare_exact_asym",
    "curve_saddle_series",
    "d_coefficients",
    "dirichlet_convolve",
    "divisor_power_sum",
    "dressed_residue",
    "estimate_B1",
    "euler_gamma",
    "evaluate_expansion",
    "evaluate_exponent",
    "expand_product",
    "expand_product_direct",
    "expansion",
    "expansion_one_pole",
    "expansion_three_pole",
    "expansion_two_pole",
    "factorial_real",
    "factorial_scaled",
    "family_label",
    "hnf_subgroup_count",
    "is_polygonal",
    "lagrange_invert",
    "lf_data_for",
    "lf_data_ntuple",
    "lf_data_power",
    "log_concavity_scan",
    "log_convexity_scan",
    "multinomial",
    "ntuple_exponent",
    "ntuple_sequence",
    "pentagonal_p",
    "phi_deriv_eval",
    "phi_eval",
    "pi_real",
    "power_coefficient",
    "power_value_table",
    "recip_power_coeff",
    "report_to_json",
    "rho_numeric",
    "rho_series_three_pole",
    "saddle_series",
    "seq_to_csv",
    "seq_to_json",
    "subgroup_count_table",
    "two_pole_K",
    "two_pole_K_series",
    "weighted_divisor_table",
    "weighted_partitions",
    "zeta_int",
    "zeta_nonpos",
    "zeta_prime_int",
    "zeta_prime_neg",
]
