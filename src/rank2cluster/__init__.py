"""Exact symbolic toolkit for coefficient-free rank-2 cluster algebras.

Two independent pipelines compute the same cluster variables: the
exchange recurrence over exact Laurent polynomials (`rank2`), and cluster
characters of modules over the generalized Kronecker quiver folded down
to two variables (`quiver`, `ccmap`).  Each serves as an oracle for the
other; `report` collects verification outcomes and `cli` exposes
everything as subcommands.
"""

from .ccmap import (
    GENERIC_DIM_BUDGET,
    CCObject,
    cc_from_spec,
    cc_polynomial,
    fold,
    g_equivariance_check,
    object_for_index,
    u_context,
    verify_exchange_relation,
    verify_folding,
)
from .laurent import LaurentPolynomial, VariableContext
from .quiver import (
    ModuleSpec,
    NotIntegral,
    NotPolynomial,
    NotRigid,
    Quiver,
    Representation,
    chi_table,
    coxeter_translate,
    direct_sum,
    euler_characteristic,
    euler_form,
    euler_matrix,
    gaussian_binomial,
    generic_module,
    hom_dimension,
    injective_dimension_vector,
    injective_module,
    kronecker_quiver,
    projective_dimension_vector,
    projective_module,
    simple_module,
)
from .rank2 import (
    X_CONTEXT,
    Y_CONTEXT,
    ExchangeType,
    check_positivity_range,
    clear_cache,
    cluster_variable,
    d_vector,
    detect_period,
    expand_in_cluster,
    predicted_numerator_terms,
)
from .report import FAIL, INCONCLUSIVE, PASS, BudgetExceeded, CheckItem, CheckReport, Inconclusive

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CCObject",
    "CheckItem",
    "CheckReport",
    "ExchangeType",
    "FAIL",
    "GENERIC_DIM_BUDGET",
    "INCONCLUSIVE",
    "Inconclusive",
    "LaurentPolynomial",
    "ModuleSpec",
    "NotIntegral",
    "NotPolynomial",
    "NotRigid",
    "PASS",
    "Quiver",
    "Representation",
    "VariableContext",
    "X_CONTEXT",
    "Y_CONTEXT",
    "cc_from_spec",
    "cc_polynomial",
    "check_positivity_range",
    "chi_table",
    "clear_cache",
    "cluster_variable",
    "coxeter_translate",
    "d_vector",
    "detect_period",
    "direct_sum",
    "euler_characteristic",
    "euler_form",
    "euler_matrix",
    "expand_in_cluster",
    "fold",
    "g_equivariance_check",
    "gaussian_binomial",
    "generic_module",
    "hom_dimension",
    "injective_dimension_vector",
    "injective_module",
    "kronecker_quiver",
    "object_for_index",
    "predicted_numerator_terms",
    "projective_dimension_vector",
    "projective_module",
    "simple_module",
    "u_context",
    "verify_exchange_relation",
    "verify_folding",
]
