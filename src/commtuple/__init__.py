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
numeric saddle-point solver for the series coefficients.  The oracles
live in commtuple.oracles, which this namespace neither exports nor
loads; only the numeric saddle solver rho_numeric stays in the saddle
module and in this namespace, where the benchmark harness binds it.

Importing the package loads the exact tables only (arith and series).
The inequality scans and the analytic layer load on first use of one of
their names, so a table command pays for neither.
"""

__version__ = "0.1.0"

import importlib

from .arith import (
    ExponentSpec,
    PolygonalIndicator,
    Power,
    SubgroupCount,
    TableExponent,
    evaluate_exponent,
    is_polygonal,
    subgroup_count_table,
)
from .series import (
    BigIntSeq,
    expand_product,
    factorial_scaled,
    ntuple_exponent,
    ntuple_sequence,
    seq_to_csv,
    seq_to_json,
    weighted_divisor_table,
)

# Name -> submodule, loaded on first use of one of its names: the scans,
# which only the scan commands run, and the analytic layer (mpmath with
# its first PrecisionContext), so the table commands pay for neither
# import.
_LAZY = {
    "ScanReport": "inequalities",
    "bessenrodt_ono_scan": "inequalities",
    "log_concavity_scan": "inequalities",
    "log_convexity_scan": "inequalities",
    "report_to_json": "inequalities",
    "AsymptoticExpansion": "asymptotics",
    "ComparisonRow": "asymptotics",
    "compare_exact_asym": "asymptotics",
    "evaluate_expansion": "asymptotics",
    "expansion": "asymptotics",
    "LSeriesData": "lfunction",
    "dressed_residue": "lfunction",
    "lf_data_for": "lfunction",
    "lf_data_ntuple": "lfunction",
    "lf_data_power": "lfunction",
    "PrecisionContext": "precision",
    "bernoulli_fraction": "precision",
    "euler_gamma": "precision",
    "zeta_int": "precision",
    "zeta_nonpos": "precision",
    "zeta_prime_int": "precision",
    "zeta_prime_neg": "precision",
    "SaddleExpansion": "saddle",
    "rho_numeric": "saddle",
    "saddle_series": "saddle",
}

__all__ = sorted([
    "BigIntSeq",
    "ExponentSpec",
    "PolygonalIndicator",
    "Power",
    "SubgroupCount",
    "TableExponent",
    "evaluate_exponent",
    "expand_product",
    "factorial_scaled",
    "is_polygonal",
    "ntuple_exponent",
    "ntuple_sequence",
    "seq_to_csv",
    "seq_to_json",
    "subgroup_count_table",
    "weighted_divisor_table",
] + list(_LAZY))


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
