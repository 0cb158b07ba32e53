"""Self-tests of the benchmark: corpus determinism, span arithmetic, and
that the oracle rejects tampered outputs.

    python3 -m pytest perfbench
"""

import json
import signal
import sys
from pathlib import Path

import pytest

import corpus
import oracle
import run
from spans import DOC, layer_metrics, self_times, unit_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_corpus(workload):
    a = corpus.corpus_bytes(corpus.generate(workload, 7))
    assert a == corpus.corpus_bytes(corpus.generate(workload, 7))
    assert a != corpus.corpus_bytes(corpus.generate(workload, 8))


def test_corpora_have_enough_documents_for_p90():
    for workload in corpus.WORKLOADS:
        assert len(corpus.generate(workload, 1)) >= 100


def test_conjugates_are_conjugates():
    import random
    rng = random.Random(3)
    u, uinv = corpus.random_unimodular(6, rng, 5, 36)
    ident = [[int(i == j) for j in range(6)] for i in range(6)]
    assert corpus.mat_mul(u, uinv) == ident


def _span(name, t0, t1, parent):
    return [name, t0, t1, parent, 0, None]


def test_self_time_of_nested_spans():
    spans = [
        _span(DOC, 0.0, 10.0, -1),
        _span("exactalg.char_poly", 1.0, 4.0, 0),
        _span("exactalg.IntMatrix.det", 2.0, 3.0, 1),
        _span("serialize.dump_json", 5.0, 9.0, 0),
        _span("serialize.validate_schema", 5.5, 6.0, 3),
        _span("serialize.validate_schema", 7.0, 8.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    m = layer_metrics(spans, timed_out_docs=0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    # nested spans of one module count once towards its busy time
    assert m["exactalg.busy_s"] == pytest.approx(3.0)
    assert m["exactalg.self_s"] == pytest.approx(3.0)
    assert m["exactalg.IntMatrix.det.busy_s"] == pytest.approx(1.0)
    assert m["serialize.validate_schema.calls"] == 2
    assert m["serialize.validate_schema.busy_s"] == pytest.approx(2.0)


def test_recursive_spans_are_not_double_counted():
    spans = [_span(DOC, 0.0, 4.0, -1),
             _span("orbit.lll_reduce", 0.0, 4.0, 0),
             _span("orbit.lll_reduce", 1.0, 2.0, 1)]
    m = layer_metrics(spans, timed_out_docs=0)
    assert m["orbit.lll_reduce.busy_s"] == pytest.approx(4.0)
    assert m["orbit.lll_reduce.calls"] == 2
    assert m["orbit.self_s"] == pytest.approx(4.0)


# --- the oracle against real and tampered outputs ---------------------------

@pytest.fixture(scope="module")
def cli():
    import abdyn.cli
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield abdyn.cli
    signal.signal(signal.SIGALRM, previous)


def _run(cli, doc, argv=None):
    status, code, out, err, _ = run.run_doc(cli, doc, argv or doc.argv, 60.0)
    assert status == "exit" and code == 0, err
    return out


def _first(docs, kind, pred=lambda d: True):
    return next(d for d in docs if d.kind == kind and pred(d))


def _tamper(text, edit):
    doc = json.loads(text)
    edit(doc["result"])
    return json.dumps(doc)


def test_oracle_rejects_fan_with_a_maximal_cone_dropped(cli):
    docs = corpus.generate("fan", 1)
    build = _first(docs, "fan build", lambda d: d.facts["B"] == [[2, 1], [1, 3]])
    out = _run(cli, build)
    assert oracle.check(build, 0, out, {}) == []

    def drop(result):
        top = max(len(c) for c in result["cones"])
        result["cones"].remove(next(c for c in result["cones"] if len(c) == top))
    problems = oracle.check(build, 0, _tamper(out, drop), {})
    assert any("volume" in p for p in problems)


def test_oracle_rejects_changed_charpoly_coefficient(cli):
    docs = corpus.generate("algebra", 1)
    doc = _first(docs, "analyze", lambda d: d.facts["group"] == "6x6")
    out = _run(cli, doc)
    assert oracle.check(doc, 0, out, {}) == []

    def bump(result):
        cp = result["parts"]["u_T"]["charpoly"]
        cp[1] = str(int(cp[1]) + 1)
    assert any("charpoly" in p for p in oracle.check(doc, 0, _tamper(out, bump), {}))


def test_oracle_rejects_orbit_relation_above_tol(cli):
    docs = corpus.generate("orbit", 1)
    doc = _first(docs, "orbit analyze", lambda d: d.facts["alpha_kind"] == "rational")
    out = _run(cli, doc)
    assert oracle.check(doc, 0, out, {}) == []

    def shift(result):
        rel = result["relations"][0]
        rel["q_prime"] = str(int(rel["q_prime"]) + 1)
    assert any("residual" in p for p in oracle.check(doc, 0, _tamper(out, shift), {}))


def test_only_listed_failures_count_as_known():
    docs = corpus.generate("algebra", 1)
    doc = _first(docs, "end-to-end", lambda d: d.facts["case"] == "3.1")
    listed = run.Outcome(doc, 0, "exit", 3, "", "", 0.0)
    other = run.Outcome(doc, 0, "exit", 4, "", "", 0.0)
    [(_, problems, known, wrong), (_, _, known4, wrong4)] = \
        run.classify([listed, other], {0: {}}, "algebra")
    assert problems and known is not None and not wrong
    assert known4 is None and wrong4


def test_metric_names_match_benchmark_json():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layers = set(layer_metrics([], 0)) | {"trace.traced_run_s", "trace.untraced_run_s",
                                          "trace.overhead_ratio"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: unit_of(name) for name in layers}
    assert set(run.EXPECTATIONS["layers"]) == layers
    docs = corpus.generate("algebra", 1)[:3]
    # the first pass ran at the reference speed, the second at half of it
    passes = [[run.Outcome(d, p, "exit", 0, "", "", t, ref) for d, t in zip(docs, times)]
              for p, (times, ref) in enumerate([((0.3, 0.1, 0.2), 0.001),
                                                ((0.4, 0.4, 0.6), 0.002)])]
    setup = [(0.5, 0.001), (1.4, 0.002), (0.6, 0.001)]
    metrics, samples, doc_s, measured = run.end_to_end(setup, passes, 80.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    assert metrics["run_s"]["value"] == pytest.approx(0.25 + 0.15 + 0.25)
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert measured["run_s"] == pytest.approx(0.35 + 0.25 + 0.4)
    assert samples["run_s"] == 2 and samples["doc_p50_ms"] == 3


def test_known_failures_and_their_readers_are_set_apart():
    docs = corpus.generate("fan", 1)
    build = _first(docs, "fan build", lambda d: d.facts["metric"] == "random")
    reader = _first(docs, "fan validate", lambda d: d.needs == build.key)
    other = _first(docs, "fan validate", lambda d: d.needs != build.key)
    later = _first(docs, "fan build",
                   lambda d: d.facts["metric"] == "random" and d.key != build.key)
    outcomes = [run.Outcome(build, 0, "exit", 4, "", "", 1.0),
                run.Outcome(reader, 0, "skipped", None, "", "", None),
                run.Outcome(other, 0, "exit", 0, "", "", 0.1),
                # a listed failure after the first pass stays an operation
                run.Outcome(later, 1, "exit", 4, "", "", 1.0)]
    kept, known = run.split_known(outcomes, "fan")
    assert known == outcomes[:2] and kept == outcomes[2:]
