"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import json

import pytest

import layers
import run
import workloads
from sixvertex import matchgate
from sixvertex.instance import serialize_instance
from tracer import Span, Target, Tracer, self_times

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    return {
        "fkt-grid": workloads.FktGrid(k=3),
        "sweep-small": workloads.SweepSmall(n_queries=12, max_edges=8, cross_k=3),
        "loop-medial": workloads.LoopMedial(n_edges=40, n_medials=2),
    }[name]


def last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "workload", lambda name, digests: tiny(name))
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_list_matches_benchmark_json():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == list(layers.METRICS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs(name):
    work = tiny(name)

    def inputs(seed):
        return [(q.key, serialize_instance(q.inst)) for q in work.build(seed)]

    assert inputs(5) == inputs(5)


def test_sweep_seeds_differ_and_routes_are_fixed():
    work = tiny("sweep-small")
    first, second = work.build(1), work.build(2)
    assert [serialize_instance(q.inst) for q in first] != [
        serialize_instance(q.inst) for q in second
    ]
    # the seed only scales the catalogue signatures: same maps, same witnesses
    assert [q.inst.map.vertices for q in first] == [q.inst.map.vertices for q in second]
    answers = [workloads.answer(q) for q in first]
    assert [a.route for a in answers] == [workloads.FAMILIES[q.key.split(".", 1)[1]][2] for q in first]
    assert [a.witnesses for a in answers] == [workloads.answer(q).witnesses for q in second]


def test_rescaled_passes_repeat_no_signature_and_stay_consistent():
    work = tiny("sweep-small")
    queries = work.build(6)
    first = [workloads.answer(q) for q in queries]
    later = work.pass_queries(queries, 9)
    assert all(q.f != q0.f for q, q0 in zip(later, queries) if not q0.f.is_zero())
    answers = [workloads.answer(q) for q in later]
    assert all(workloads.consistent(q, a, a0) for q, a, a0 in zip(later, answers, first))
    passes = [(queries, first), (later, answers)]
    assert workloads.count_failures(work, queries, passes) == (0, [])


def test_a_changed_answer_fails_the_run():
    work = tiny("loop-medial")
    queries = work.build(0)
    first = [workloads.answer(q) for q in queries]
    second = list(first)
    second[1] = workloads.Answer(first[1].route, first[1].witnesses, first[1].value + 1)
    failed, messages = workloads.count_failures(work, queries, [(queries, first), (queries, second)])
    assert failed == 1 and messages == [f"{queries[1].key}: answer changed between passes"]


def test_check_catches_a_wrong_value():
    work = tiny("sweep-small")
    queries = work.build(0)
    answers = [workloads.answer(q) for q in queries]
    idx = next(i for i, a in enumerate(answers) if a.value is not None)
    wrong = answers[idx]
    answers[idx] = workloads.Answer(wrong.route, wrong.witnesses, wrong.value + 1)
    verdicts = work.check(queries, answers)
    assert [i for i, msg in enumerate(verdicts) if msg] == [idx]


def test_digest_mismatch_fails():
    work = workloads.FktGrid(k=2, digests={"fkt-grid/grid2": "1"})
    queries = work.build(0)
    answers = [workloads.answer(q) for q in queries]
    assert work.check(queries, answers)[0] is not None
    sweep = workloads.SweepSmall(cross_k=2, digests={})
    assert sweep.extra_checks([]) == ["cross-route/grid2: no pinned digest"]


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent)


def test_self_time_of_nested_fake_spans():
    spans = [
        span("outer", 0.0, 10.0),
        span("child", 1.0, 4.0, 0),
        span("grandchild", 2.0, 3.0, 1),
        span("child", 3.5, 6.0, 0),  # overlaps the first child: counted once
        span("other", 20.0, 21.0),
    ]
    times = self_times(spans)
    assert times["outer"] == pytest.approx(10.0 - 5.0)
    assert times["child"] == pytest.approx((3.0 - 1.0) + 2.5)
    assert times["grandchild"] == pytest.approx(1.0)
    assert times["other"] == pytest.approx(1.0)


def test_tracer_records_parents_and_notes():
    class Box:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def root(x):
            return Box.leaf(x) * 2

    tracer = Tracer()
    targets = [
        Target(Box, "root", "root"),
        Target(Box, "leaf", "leaf", lambda args, kwargs, result: (args[0], result)),
    ]
    with tracer.installed(targets):
        assert Box.root(1) == 4
        with pytest.raises(TypeError):
            Box.root(None)
        assert Box.leaf(5) == 6
    assert [(s.name, s.parent, s.note) for s in tracer.spans] == [
        ("root", -1, None),
        ("leaf", 0, (1, 2)),
        ("root", -1, None),
        ("leaf", 2, (None, None)),  # raised: closed, with no result
        ("leaf", -1, (5, 6)),
    ]
    assert all(s.end >= s.start for s in tracer.spans)


def test_every_wrapper_is_restored_even_after_a_raise():
    targets = layers.QUERY_TARGETS + layers.SETUP_TARGETS
    originals = [vars(t.owner)[t.attr] for t in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert all(vars(t.owner)[t.attr] is not o for t, o in zip(targets, originals))
            matchgate.pfaffian_sparse(2, {})
            raise RuntimeError("traced code failed")
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))
    assert tracer._stack == []


def test_traced_values_equal_untraced_values():
    work = tiny("sweep-small")
    queries = work.build(4)
    plain = [workloads.answer(q) for q in queries]
    tracer = Tracer()
    with tracer.installed(layers.QUERY_TARGETS):
        traced = [workloads.answer(q) for q in queries]
    assert traced == plain
    assert {s.name for s in tracer.spans} >= {"classify.classify", "matchgate.pfaffian_sparse"}
