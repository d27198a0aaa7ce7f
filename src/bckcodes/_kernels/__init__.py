"""The table search, the axiom scan, the two property scans and the order pairs.

The kernels live in the submodule `pure`; this package re-exports them
so that callers, and call tracing, go through `bckcodes._kernels`.
"""

from .pure import (
    BACKEND_NAME,
    axiom_witnesses,
    bck_candidates,
    commutative_witness,
    implicative_witness,
    order_pairs,
    table_is_bck,
)

__all__ = [
    "BACKEND_NAME",
    "axiom_witnesses",
    "bck_candidates",
    "commutative_witness",
    "implicative_witness",
    "order_pairs",
    "table_is_bck",
]
