"""Exact-arithmetic verification of subset-product bounds.

For a positive vector, the weighted sum of product-over-sum terms across all
k-subsets is bounded by a scaled elementary symmetric polynomial. This
package checks that bound, its supporting lemmas, and the rearrangement
identity behind it in exact rational arithmetic, and ships float-side fuzzing
and maximization harnesses whose verdicts are always re-certified exactly.
"""

from symineq.exact import (
    InputError,
    PositiveVector,
    make_vector,
    parse_scalar,
    render_scalar,
)
from symineq.symfun import elementary_symmetric
from symineq.inequality import (
    InequalityReport,
    Statement,
    Violation,
    check_main,
    check_pairwise_lemma,
    check_proof_identity,
    check_reciprocal_lemma,
    lhs_main,
    proof_identity,
    report_to_record,
    rhs_main,
)
from symineq.search import (
    Distribution,
    FuzzReport,
    SearchResult,
    fuzz,
    maximize_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "InputError",
    "PositiveVector",
    "make_vector",
    "parse_scalar",
    "render_scalar",
    "elementary_symmetric",
    "InequalityReport",
    "Statement",
    "Violation",
    "check_main",
    "check_pairwise_lemma",
    "check_proof_identity",
    "check_reciprocal_lemma",
    "lhs_main",
    "proof_identity",
    "report_to_record",
    "rhs_main",
    "Distribution",
    "FuzzReport",
    "SearchResult",
    "fuzz",
    "maximize_ratio",
    "__version__",
]
