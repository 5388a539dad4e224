"""The sixvertex functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each target is a public function at the place its caller looks it up: the
membership tests once per importing module (so their cost splits by caller),
``RotationMap`` methods on the class.  Private helpers such as ``_assemble``
and ``_pfaffian_value`` are not wrapped; their time shows as the self time
of ``fkt_eval`` and ``fkt_eval_hat``.
"""

from __future__ import annotations

from typing import Any, Sequence

from sixvertex import classify, cspsolve, instance, loopspace, matchgate, oracle

from tracer import Span, Target, self_times


def _first_arg(args, kwargs, result) -> Any:
    return args[0]


def _pfaffian_size(args, kwargs, result) -> tuple[int, int]:
    return args[0], len(args[1])


def _n_vars(args, kwargs, result) -> int:
    return args[1]


def _circuits(args, kwargs, result) -> int:
    return result.k if result is not None else 0


def _constraints(args, kwargs, result) -> int:
    return len(result.binary) + len(result.unary) if result is not None else 0


MEMBERSHIP_CALLERS = (
    (classify, "classify", ("is_product", "is_affine", "is_matchgate", "is_matchgate_hat")),
    (loopspace, "loopspace", ("is_product", "is_affine")),
    (cspsolve, "cspsolve", ("is_product", "is_affine")),
    (matchgate, "matchgate", ("is_matchgate", "is_matchgate_hat")),
)

QUERY_TARGETS = (
    Target(classify, "classify", "classify.classify"),
    *(
        Target(module, test, f"membership.{test}.in_{caller}", _first_arg)
        for module, caller, tests in MEMBERSHIP_CALLERS
        for test in tests
    ),
    Target(matchgate, "fkt_eval", "matchgate.fkt_eval"),
    Target(matchgate, "fkt_eval_hat", "matchgate.fkt_eval_hat"),
    Target(matchgate, "synthesize", "matchgate.synthesize", _first_arg),
    Target(matchgate, "synthesize_even_image", "matchgate.synthesize_even_image"),
    Target(matchgate, "matching_signature", "oracle.matching_signature"),
    Target(matchgate, "kasteleyn_orient", "matchgate.kasteleyn_orient"),
    Target(matchgate, "pfaffian_sparse", "matchgate.pfaffian_sparse", _pfaffian_size),
    Target(instance.RotationMap, "faces", "instance.RotationMap.faces"),
    Target(instance.RotationMap, "validate_planar", "instance.RotationMap.validate_planar"),
    Target(loopspace, "evaluate", "loopspace.evaluate"),
    Target(loopspace, "decompose", "loopspace.decompose", _circuits),
    Target(loopspace, "entry_exit_audit", "loopspace.entry_exit_audit"),
    Target(loopspace, "induced_csp", "loopspace.induced_csp", _constraints),
    Target(loopspace, "product_eval", "cspsolve.product_eval", _n_vars),
    Target(loopspace, "affine_eval", "cspsolve.affine_eval", _n_vars),
    Target(oracle, "holant_brute", "oracle.holant_brute"),
)

SETUP_TARGETS = (
    Target(instance, "grid_patch", "instance.grid_patch"),
    Target(instance, "medial_of_random_plane_graph", "instance.medial_of_random_plane_graph"),
)

# span names that also report their call count per pass
COUNTED = (
    "classify.classify",
    *(t.name for t in QUERY_TARGETS if t.name.startswith("membership.")),
    "matchgate.synthesize",
    "matchgate.synthesize_even_image",
    "oracle.matching_signature",
    "matchgate.pfaffian_sparse",
    "instance.RotationMap.faces",
    "cspsolve.product_eval",
    "cspsolve.affine_eval",
    "oracle.holant_brute",
)

# (name, unit, better); the order BENCHMARK.json lists them in
METRICS: tuple[tuple[str, str, str], ...] = (
    *((f"{t.name}.self_s", "s", "lower") for t in QUERY_TARGETS),
    *((f"{name}.calls", "count", "lower") for name in COUNTED),
    ("matchgate.pfaffian_sparse.n_max", "count", "lower"),
    ("matchgate.pfaffian_sparse.nnz_max", "count", "lower"),
    ("matchgate.synthesize.distinct_frac", "ratio", "higher"),
    ("membership.distinct_frac", "ratio", "higher"),
    ("loopspace.circuits", "count", "lower"),
    ("loopspace.constraints", "count", "lower"),
    ("cspsolve.product_eval.n_vars_max", "count", "lower"),
    ("cspsolve.affine_eval.n_vars_max", "count", "lower"),
    *((f"{t.name}.self_s", "s", "lower") for t in SETUP_TARGETS),
    ("trace.overhead_s", "s", "lower"),
)


def _notes(spans: Sequence[Span], name: str) -> list:
    return [s.note for s in spans if s.name == name and s.note is not None]


def _distinct_frac(keys: list) -> float:
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(
    setup_spans: Sequence[Span],
    pass_spans: Sequence[Sequence[Span]],
    queries_per_pass: int,
    overhead_s: float,
) -> dict[str, float]:
    """Self seconds per query (per set-up for the generators); counts, maxima
    and distinct fractions over one pass of the query list.

    Every pass answers the same queries, so the counts of the first pass
    stand for all of them."""
    traced_queries = queries_per_pass * len(pass_spans)
    self_s: dict[str, float] = {}
    for spans in pass_spans:
        for name, seconds in self_times(spans).items():
            self_s[name] = self_s.get(name, 0.0) + seconds / traced_queries
    setup_self = self_times(setup_spans)

    first = pass_spans[0]
    calls: dict[str, int] = {}
    for span in first:
        calls[span.name] = calls.get(span.name, 0) + 1
    sizes = _notes(first, "matchgate.pfaffian_sparse")
    membership_keys = [
        (s.name.split(".")[1], s.note) for s in first if s.name.startswith("membership.")
    ]

    out: dict[str, float] = {}
    for t in QUERY_TARGETS:
        out[f"{t.name}.self_s"] = self_s.get(t.name, 0.0)
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["matchgate.pfaffian_sparse.n_max"] = max((n for n, _ in sizes), default=0)
    out["matchgate.pfaffian_sparse.nnz_max"] = max((nnz for _, nnz in sizes), default=0)
    out["matchgate.synthesize.distinct_frac"] = _distinct_frac(
        _notes(first, "matchgate.synthesize")
    )
    out["membership.distinct_frac"] = _distinct_frac(membership_keys)
    out["loopspace.circuits"] = sum(_notes(first, "loopspace.decompose"))
    out["loopspace.constraints"] = sum(_notes(first, "loopspace.induced_csp"))
    for name in ("cspsolve.product_eval", "cspsolve.affine_eval"):
        out[f"{name}.n_vars_max"] = max(_notes(first, name), default=0)
    for t in SETUP_TARGETS:
        out[f"{t.name}.self_s"] = setup_self.get(t.name, 0.0)
    out["trace.overhead_s"] = overhead_s
    return out
