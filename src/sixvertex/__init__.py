"""Exact six-vertex model toolkit: classification, planar evaluation, oracles.

The entry point is `evaluate(inst)`, which routes a planar instance to the
polynomial-time evaluator its labels' trichotomy witnesses allow (see
`sixvertex.route`); `sixvertex.classify.classify` gives the verdict for one
signature.
"""

from .route import NoPolynomialRoute, evaluate
from .scalar import Scalar, parse_scalar, format_scalar

__all__ = ["NoPolynomialRoute", "Scalar", "evaluate", "parse_scalar", "format_scalar"]
