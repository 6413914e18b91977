"""Exact generation and Stieltjes moment certification of sequences driven
by three-term weight recurrences.

Everything is computed over arbitrary-precision rationals; there is no
floating point anywhere.  The package builds recursive matrices from weight
pairs, certifies total positivity of their tridiagonal coefficient
matrices, evaluates both Hankel determinant families, and cross-validates
three independent computation routes: the recurrence, the Hankel
factorization, and generating-function expansion.
"""

from types import ModuleType as _ModuleType

from .exact import (
    FALSE,
    TRUE,
    as_rat,
    format_rat,
    negative_principal_minor,
)
from .hankel import (
    FAIL,
    PASS,
    StieltjesReport,
    stieltjes_check,
    stieltjes_weights,
    verify_H_eq_RTRt,
)
from .jacobi import (
    JacobiParams,
    TPReport,
    tp_by_leading_minors,
    tp_certify,
    tp_criterion_pqst,
    tp_sufficient_dominance,
)
from .recursive import (
    catalan_like,
    motzkin_oracle,
    verify_RJ_identity,
    verify_step_factorization,
)
from .seqspec import (
    CATALOG,
    CATALOG_NAMES,
    CatalogEntry,
    ConstantTail,
    PolynomialTail,
    SequenceSpec,
    catalog_lookup,
    pqst_of,
)
from .series import (
    GFSpec,
    gf_expand,
    gf_from_json,
    gf_to_json,
    riordan_column_check,
)

__version__ = "0.1.0"

# every public name above, and no submodule
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
