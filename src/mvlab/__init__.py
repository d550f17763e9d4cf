"""Exact tables of a_{g,n}, their volumes and area constants, and the
numerical extraction of their large-genus expansions.

Every headline quantity is computable along at least two independent
routes that are required to agree exactly; see the verify module.
"""

from .agn import AgnTable, a_alt, a_direct, build_table, load_table, save_table
from .asym import (
    AsymFit,
    BigFloat,
    compare_report,
    conjectured_C,
    conjectured_m,
    estimate_C,
    estimate_m,
    normalize_vol,
    richardson_fit,
)
from .exact import LaurentT, bernoulli
from .funceq import verify_functional_eqs
from .genus import (
    GenusCoeffs,
    agn_from_series,
    coeffs_C,
    kazarian_c,
    tilde_u,
    u_direct,
    u_from_tilde,
)
from .verify import GOLDEN_TABLE1, run_suite
from .volumes import (
    PiScaled,
    cg_seq,
    kappa,
    lambda_g_value,
    sv_constant,
    volume,
    volume_closed_g0,
    volume_closed_g1,
)

__version__ = "0.1.0"

__all__ = [
    "AgnTable", "a_alt", "a_direct", "build_table", "load_table", "save_table",
    "AsymFit", "compare_report", "conjectured_C", "conjectured_m",
    "estimate_C", "estimate_m", "normalize_vol", "richardson_fit",
    "BigFloat", "LaurentT", "bernoulli",
    "verify_functional_eqs",
    "GenusCoeffs", "agn_from_series", "coeffs_C", "kazarian_c",
    "tilde_u", "u_direct", "u_from_tilde",
    "GOLDEN_TABLE1", "run_suite",
    "PiScaled", "cg_seq", "kappa", "lambda_g_value", "sv_constant",
    "volume", "volume_closed_g0", "volume_closed_g1",
    "__version__",
]
