"""The benchmark's workloads: seeded query lists, the router that answers a
query, and the correctness checks that run outside the timed region.

A query is one signature on one planar instance.  ``answer`` routes it the
way a user of ``sixvertex`` would today: classify first, then call the
evaluator the witnesses allow.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from sixvertex import classify, instance, loopspace, matchgate, oracle
from sixvertex.classify import Condition, PlanarClass
from sixvertex.cspsolve import NotAffine, NotProduct
from sixvertex.scalar import MU8, ONE, W, ZERO, Scalar, format_scalar, rational
from sixvertex.signature import SixVertexSignature

DIGEST_FILE = Path(__file__).with_name("digests.json")


def sv(*vals) -> SixVertexSignature:
    return SixVertexSignature.from_values(*vals)


@dataclass(frozen=True)
class Query:
    key: str  # names the instance in digests and failure messages
    inst: instance.PlanarInstance
    f: SixVertexSignature
    scale: Scalar = ONE  # f is the base signature times scale


def rescaled(q: Query, scale: Scalar) -> Query:
    """The same instance under scale * f at every vertex: the same witnesses,
    route and work, but a signature no cache has seen."""
    f = q.f.scale(scale)
    return Query(q.key, q.inst.relabel([f] * q.inst.map.vertex_count), f, q.scale * scale)


@dataclass(frozen=True)
class Answer:
    route: str  # "loopspace", "fkt", "fkt_hat", "brute" or "hard"
    witnesses: frozenset
    value: Optional[Scalar]  # None when the verdict is #P-hard


def route_of(witnesses: frozenset) -> str:
    """C4 to loop space, C3 to FKT or FKT-hat, any other witness to the
    brute-force oracle (the only evaluator for C1/C2-only signatures), no
    witness to the #P-hard verdict."""
    if Condition.C4I in witnesses or Condition.C4II in witnesses:
        return "loopspace"
    if Condition.C3_M in witnesses:
        return "fkt"
    if Condition.C3_MHAT in witnesses:
        return "fkt_hat"
    return "brute" if witnesses else "hard"


def answer(q: Query) -> Answer:
    """Classify once, then call the evaluator the route names."""
    witnesses = classify.classify(q.f).witnesses
    route = route_of(witnesses)
    if route == "loopspace":
        value = loopspace.evaluate(q.inst, profile_base=q.f)
    elif route == "fkt":
        value = matchgate.fkt_eval(q.inst)
    elif route == "fkt_hat":
        value = matchgate.fkt_eval_hat(q.inst)
    elif route == "brute":
        value = oracle.holant_brute(q.inst)
    else:
        value = None
    return Answer(route, witnesses, value)


def consistent(q: Query, a: Optional[Answer], base: Answer) -> bool:
    """Whether ``a``, the answer to a rescaled query, matches the answer to
    the unscaled one: Holant(s f) = s^|V| Holant(f) for a uniform label."""
    if a is None or (a.route, a.witnesses) != (base.route, base.witnesses):
        return False
    if base.value is None:
        return a.value is None
    return a.value == base.value * q.scale ** q.inst.map.vertex_count


def count_failures(work, queries, passes: list[tuple[list, list]]) -> tuple[int, list[str]]:
    """Check the first pass with the workload's checks and every later pass
    against the first; return the number of failed answers and the messages.
    ``passes`` holds (queries, answers) per pass."""
    first = passes[0][1]
    verdicts: list = [f"{q.key}: raised" for q in queries]
    answered = [i for i, a in enumerate(first) if a is not None]
    checked = work.check([queries[i] for i in answered], [first[i] for i in answered])
    for i, msg in zip(answered, checked):
        verdicts[i] = msg
    messages = [msg for msg in verdicts if msg]
    failed = 0
    for pass_queries, answers in passes:
        for q, verdict, a, a0 in zip(pass_queries, verdicts, answers, first):
            if verdict:
                failed += 1
            elif not consistent(q, a, a0):
                failed += 1
                messages.append(f"{q.key}: answer changed between passes")
    return failed, messages


class Workload:
    """Defaults: every pass answers the same queries; no checks beyond the
    per-query ones."""

    setup_repeats = 5

    def pass_queries(self, queries: list[Query], index: int) -> list[Query]:
        return queries

    def extra_checks(self, queries: list[Query]) -> list[str]:
        return []


def load_digests() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())


def _digest_failure(digests: Optional[dict], key: str, value: Scalar) -> Optional[str]:
    """Compare with the pinned exact value; no comparison when digests is None."""
    if digests is None:
        return None
    if key not in digests:
        return f"{key}: no pinned digest"
    got = format_scalar(value)
    if got != digests[key]:
        return f"{key}: value {got} differs from the pinned {digests[key]}"
    return None


# -- fkt-grid -----------------------------------------------------------------

FKT_LABEL = sv(1, 1, 1, 2, 1, 3)  # only witness: C3_M
CROSS_LABEL = sv(1, 1, 0, 1, -1, 0)  # a matchgate with c = z = 0, so also C4


class FktGrid(Workload):
    """One uniform matchgate instance on a grid patch, answered by FKT.

    The instance is fixed; the seed changes nothing.  Not listed in
    BENCHMARK.json: a run times its 3 s query too few times to stay within
    the benchmark's bounds on a shared host, so it is run by hand."""

    name = "fkt-grid"
    setup_repeats = 9

    def __init__(self, k: int = 12, digests: Optional[dict] = None):
        self.k, self.digests = k, digests

    def build(self, seed: int) -> list[Query]:
        grid = instance.grid_patch(self.k, self.k)
        return [Query(f"grid{self.k}", instance.uniform_instance(grid, FKT_LABEL), FKT_LABEL)]

    def warm_up(self, queries: list[Query]) -> None:
        small = instance.uniform_instance(instance.grid_patch(2, 2), FKT_LABEL)
        answer(Query("grid2", small, FKT_LABEL))

    def check(self, queries: list[Query], answers: list[Answer]) -> list[Optional[str]]:
        out = []
        for q, a in zip(queries, answers):
            if a.route != "fkt":
                out.append(f"{q.key}: routed to {a.route}")
                continue
            other = matchgate.fkt_eval(q.inst, orientation_seed=1)
            out.append(
                f"{q.key}: orientation seeds 0 and 1 disagree"
                if other != a.value
                else _digest_failure(self.digests, f"{self.name}/{q.key}", a.value)
            )
        return out


# -- sweep-small --------------------------------------------------------------


def _small_int(rng: random.Random, span: int = 3) -> Scalar:
    return rational(rng.randint(-span, span))


def _nonzero(rng: random.Random) -> Scalar:
    return rational(rng.choice([1, 2, 3, -1, -2])) * MU8[rng.randrange(8)]


def _matchgate(rng: random.Random) -> SixVertexSignature:
    """ax = cz - by over small integers."""
    b, c, y, z = (_small_int(rng) for _ in range(4))
    a = rational(rng.choice([1, 2, -1]))
    return SixVertexSignature(a, b, c, (c * z - b * y) / a, y, z)


def _matchgate_hat(rng: random.Random) -> SixVertexSignature:
    """The two M-hat shapes (0,b,c,0,eb,ec) and (a,0,c,ea,0,ec), e = +-1."""
    eps = rational(rng.choice([1, -1]))
    p, c = _small_int(rng), _small_int(rng)
    if rng.random() < 0.5:
        return SixVertexSignature(ZERO, p, c, ZERO, eps * p, eps * c)
    return SixVertexSignature(p, ZERO, c, eps * p, ZERO, eps * c)


def _c4i(rng: random.Random) -> SixVertexSignature:
    """c = z = 0 and (ax)^2 = (by)^2."""
    a, b, x = (rational(rng.choice([1, 2, -1, -2])) for _ in range(3))
    y = rational(rng.choice([1, -1])) * a * x / b
    return SixVertexSignature(a, b, ZERO, x, y, ZERO)


def _c4ii(rng: random.Random) -> SixVertexSignature:
    """c = z = 0, x = a i^alpha, b = a w^beta, y = a w^gamma, beta = gamma mod 2."""
    a = MU8[rng.randrange(8)] * rational(rng.choice([1, 2]))
    beta = rng.randrange(8)
    gamma = (beta + 2 * rng.randrange(4)) % 8
    x = a * W ** (2 * rng.randrange(4))
    return SixVertexSignature(a, a * W**beta, ZERO, x, a * W**gamma, ZERO)


# the support pattern (x1, x2, x3, x4) of a, b, c, x, y, z
_PATTERNS = ((0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0))


def _c1_only(rng: random.Random) -> SixVertexSignature:
    """Product-type or affine: one pair carries two nonzero values
    (product-type), or two pairs carry i-powers i^{L(X) + 2 x1 x3} on their
    four patterns (affine)."""
    vals = [ZERO] * 6  # a, b, c, x, y, z
    pairs = rng.sample([(0, 3), (1, 4), (2, 5)], rng.choice([1, 2]))
    if len(pairs) == 1:
        for slot in pairs[0]:
            vals[slot] = _nonzero(rng)
        return SixVertexSignature(*vals)
    lam = _nonzero(rng)
    lin = [rng.randrange(4) for _ in range(4)]
    cross = rng.randrange(2)
    for pair in pairs:
        for slot in pair:
            bits = _PATTERNS[slot]
            q = sum(c * b for c, b in zip(lin, bits)) + 2 * cross * bits[0] * bits[2]
            vals[slot] = lam * W ** (2 * (q % 4))
    return SixVertexSignature(*vals)


def _generic(rng: random.Random) -> SixVertexSignature:
    return sv(*(rng.randint(-2, 2) for _ in range(6)))


# family -> (generator, the witnesses of which each draw must carry one, the
# route the family stands for); a draw that takes another route is redrawn,
# so every pass has the same route mix
FAMILIES: dict[str, tuple[Callable[[random.Random], SixVertexSignature], frozenset, str]] = {
    "matchgate": (_matchgate, frozenset({Condition.C3_M}), "fkt"),
    "matchgate_hat": (_matchgate_hat, frozenset({Condition.C3_MHAT}), "fkt_hat"),
    "c4i": (_c4i, frozenset({Condition.C4I}), "loopspace"),
    "c4ii": (_c4ii, frozenset({Condition.C4II}), "loopspace"),
    "c1_only": (_c1_only, frozenset({Condition.C1_P, Condition.C1_A}), "brute"),
    "generic": (_generic, frozenset(), "hard"),
}


def draw(rng: random.Random, family: str) -> SixVertexSignature:
    generate, required, route = FAMILIES[family]
    while True:
        f = generate(rng)
        witnesses = classify.classify(f).witnesses
        if required and not required & witnesses:
            raise ValueError(f"the classifier misses the {family} witness of {f!r}")
        if route_of(witnesses) == route:
            return f


class SweepSmall(Workload):
    """A stream of signatures, each on its own small random medial.

    The base signatures and the medials are a fixed catalogue, drawn from
    ``CATALOGUE_SEED``; the workload seed scales each signature by a random
    eighth root of unity.  Scaling keeps a signature's witnesses, route and
    work, so every seed has the same cost profile.  Drawn per seed, the
    signatures moved ``query_s_p50`` by about 12% from seed to seed (classify
    time differs by up to 4x between signatures of one family), and the
    medials of the slowest FKT queries moved ``query_s_p90`` by about 13%.

    Every instance stays under the brute-force cap, so every value of the
    first pass is checked against ``oracle.holant_brute``; later passes
    answer the same instances under rescaled signatures."""

    name = "sweep-small"
    CATALOGUE_SEED = 0

    def __init__(
        self,
        n_queries: int = 126,
        min_edges: int = 6,
        max_edges: int = 12,
        cross_k: int = 8,
        digests: Optional[dict] = None,
    ):
        self.n_queries, self.min_edges, self.max_edges = n_queries, min_edges, max_edges
        self.cross_k, self.digests = cross_k, digests

    def build(self, seed: int) -> list[Query]:
        rng, catalogue = random.Random(seed), random.Random(self.CATALOGUE_SEED)
        names = list(FAMILIES)
        out = []
        sizes = self.max_edges - self.min_edges + 1
        for idx in range(self.n_queries):
            family = names[idx % len(names)]
            f = draw(catalogue, family).scale(W ** rng.randrange(8))
            n_edges = self.min_edges + (idx // len(names)) % sizes
            medial = instance.medial_of_random_plane_graph(n_edges, catalogue.randrange(2**32))
            out.append(Query(f"{idx}.{family}", instance.uniform_instance(medial, f), f))
        return out

    def warm_up(self, queries: list[Query]) -> None:
        """One query of each family, under a scale that no pass uses."""
        for q in queries[: len(FAMILIES)]:
            answer(rescaled(q, rational(1, 2)))

    def check(self, queries: list[Query], answers: list[Answer]) -> list[Optional[str]]:
        out = []
        for q, a in zip(queries, answers):
            if a.route == "hard":
                hard = classify.classify(q.f).planar_class is PlanarClass.SHARP_P_HARD_PLANAR
                out.append(None if hard and a.value is None else f"{q.key}: bad #P-hard answer")
            elif a.value != oracle.holant_brute(q.inst):
                out.append(f"{q.key}: {a.route} disagrees with holant_brute")
            else:
                out.append(None)
        return out

    def pass_queries(self, queries: list[Query], index: int) -> list[Query]:
        """Pass k > 0 scales every signature by w^k (1 + k // 8), so no
        signature repeats within a run."""
        if index == 0:
            return queries
        scale = W**index * rational(1 + index // 8)
        return [rescaled(q, scale) for q in queries]

    def extra_checks(self, queries: list[Query]) -> list[str]:
        """FKT and loop space must agree on a signature both apply to."""
        grid = instance.grid_patch(self.cross_k, self.cross_k)
        inst = instance.uniform_instance(grid, CROSS_LABEL)
        by_fkt = matchgate.fkt_eval(inst)
        by_loops = loopspace.evaluate(inst, profile_base=CROSS_LABEL)
        key = f"cross-route/grid{self.cross_k}"
        if by_fkt != by_loops:
            return [f"{key}: fkt_eval and loopspace.evaluate disagree"]
        failure = _digest_failure(self.digests, key, by_fkt)
        return [failure] if failure else []


# -- loop-medial --------------------------------------------------------------

LOOP_LABELS = {
    "c4i": sv(1, 2, 0, 2, 1, 0),  # product-type
    "c4ii": SixVertexSignature(ONE, W, ZERO, W**2, W**3, ZERO),  # affine only
}
BOTH_METHODS_LABEL = sv(1, 1, 0, 1, 1, 0)  # product-type and affine


class LoopMedial(Workload):
    """Large random medials evaluated in loop space under a product-type and
    an affine-only signature.

    The medials are fixed (generator seeds 0 .. n_medials-1), so that every
    run measures the same work and every value has a pinned digest: query
    time differs by up to 2x between medials of the same size.  The workload
    seed sets the order in which the queries are answered."""

    name = "loop-medial"
    setup_repeats = 3  # one set-up generates three 1200-edge medials, about 4 s

    def __init__(self, n_edges: int = 1200, n_medials: int = 3, digests: Optional[dict] = None):
        self.n_edges, self.n_medials, self.digests = n_edges, n_medials, digests

    def build(self, seed: int) -> list[Query]:
        queries = []
        for medial_seed in range(self.n_medials):
            medial = instance.medial_of_random_plane_graph(self.n_edges, medial_seed)
            for name, f in LOOP_LABELS.items():
                key = f"medial{self.n_edges}.{medial_seed}.{name}"
                queries.append(Query(key, instance.uniform_instance(medial, f), f))
        random.Random(seed).shuffle(queries)
        return queries

    def warm_up(self, queries: list[Query]) -> None:
        small = instance.medial_of_random_plane_graph(20, 0)
        for f in LOOP_LABELS.values():
            answer(Query("warm-up", instance.uniform_instance(small, f), f))

    def check(self, queries: list[Query], answers: list[Answer]) -> list[Optional[str]]:
        out = []
        for q, a in zip(queries, answers):
            if a.route != "loopspace":
                out.append(f"{q.key}: routed to {a.route}")
                continue
            by_method = [v for v in _both_methods(q.inst, q.f) if v is not None]
            if any(v != a.value for v in by_method):
                out.append(f"{q.key}: the product and affine methods disagree")
            else:
                out.append(_digest_failure(self.digests, f"{self.name}/{q.key}", a.value))
        return out

    def extra_checks(self, queries: list[Query]) -> list[str]:
        """Product and affine must agree where both apply, at full size."""
        failures = []
        medials = {q.key.rsplit(".", 1)[0]: q.inst.map for q in queries}
        for medial_key, medial in sorted(medials.items()):
            inst = instance.uniform_instance(medial, BOTH_METHODS_LABEL)
            by_product, by_affine = _both_methods(inst, BOTH_METHODS_LABEL)
            if by_product is None or by_product != by_affine:
                failures.append(f"{medial_key}: the product and affine methods disagree")
                continue
            key = f"{self.name}/{medial_key}.both_methods"
            failures += filter(None, [_digest_failure(self.digests, key, by_product)])
        return failures


def _both_methods(inst, f) -> tuple[Optional[Scalar], Optional[Scalar]]:
    values = []
    for method, refusal in (("product", NotProduct), ("affine", NotAffine)):
        try:
            values.append(loopspace.evaluate(inst, profile_base=f, method=method))
        except refusal:
            values.append(None)
    return values[0], values[1]


def workload(name: str, digests: Optional[dict]):
    """The workload at its benchmark size, checking against ``digests``."""
    if name == "fkt-grid":
        return FktGrid(digests=digests)
    if name == "sweep-small":
        return SweepSmall(digests=digests)
    if name == "loop-medial":
        return LoopMedial(digests=digests)
    raise KeyError(name)

