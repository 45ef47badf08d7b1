"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import os
import random
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import tgs  # noqa: E402
import tgs.cli  # noqa: E402


@pytest.fixture(scope="module")
def data():
    with open(os.path.join(run.HERE, "data.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(range(199), 95) is None
    assert run.percentile(range(200), 95) == 189
    assert run.percentile(range(350), 95) == 332
    assert run.percentile(range(10), 50) is None
    assert run.percentile([], 50) is None


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and d [5, 7]; b holds c [2, 3]
    spans = {"start": [0.0, 1.0, 2.0, 5.0], "end": [10.0, 4.0, 3.0, 7.0],
             "parent": [-1, 0, 1, 0]}
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_recorder_links_parents_and_times_each_next():
    rec = tracing.Recorder()
    outer = rec.begin("outer")
    assert list(rec.drive("gen", iter("ab"))) == ["a", "b"]
    rec.finish(outer)
    # two items and the final StopIteration
    assert rec.names == ["outer", "gen", "gen", "gen"]
    assert rec.parent == [-1, 0, 0, 0]
    assert all(e >= s for s, e in zip(rec.start, rec.end))


def _traced(fn):
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    assert patches
    try:
        fn(rec)
    finally:
        tracing.restore(patches)
    assert tracing.leftover_wrappers() == []
    return rec.to_dict()


def test_search_counters_repeat_at_order_4(tmp_path):
    op = {"label": "4,1", "order": 4, "gamma": 1}
    outs = []

    def classify(rec):
        with open(os.devnull, "w") as sink:
            outs.append(workloads.run_op("classify", tgs, op, None, str(tmp_path),
                                         sink, rec.drive))

    spans = _traced(classify)
    counters = {}
    values = run.layer_metrics(spans, counters, outs)
    assert (values["enumeration.completed_tables"],
            values["enumeration.tables_passed"]) == (1420, 206)
    assert run.per_op_counts(spans, ["4,1"]) == {"4,1": [1420, 206]}
    assert outs[0]["exit"] == 0
    assert workloads.check("classify", {"structure_count": 175,
                                        "structures_sha256": "x"}, outs[0],
                           counters) == "digest of the structures array differs"
    assert counters == {"candidates": 206, "representatives": 175}


def test_analyze_counters_per_file_and_gate(tmp_path, data):
    ops, expected = workloads.prepare("analyze", data, random.Random(3),
                                      str(tmp_path))
    ops, expected = ops[:5], expected[:5]
    outs = []

    def analyze(rec):
        with open(os.devnull, "w") as sink:
            for op in ops:
                outs.append(workloads.run_op("analyze", tgs, op, None,
                                             str(tmp_path), sink, rec.drive))

    spans = _traced(analyze)
    values = run.layer_metrics(spans, {}, outs)
    assert values["quotient.enumerate_congruences.calls"] == 3 * len(ops)
    assert values["spectrum.verify_topology.calls"] == 2 * len(ops)
    counters = {}
    assert [workloads.check("analyze", e, o, counters)
            for e, o in zip(expected, outs)] == [None] * len(ops)
    # asserted-suite findings (maximal-implies-prime) are counted as results,
    # not as failed operations
    assert counters["asserted_failures"] > 0


def test_wrong_output_fails_its_operation():
    expected = {"distinct": 10}
    assert workloads.check("order5", expected, {"candidates": 15, "distinct": 9},
                           {}) == "9 distinct structures, expected 10"
    assert workloads.check("order5", expected, {"error": "ValueError: x"},
                           {}) == "ValueError: x"
    assert workloads.check("modules", [True, 3, 1, 0], {"counts": [True, 3, 1, 0]},
                           {}) is None


def test_relabeled_input_keeps_canonical_form(data):
    moved = 0
    for row in data["corpus"]["3,2"][:10]:
        doc = workloads.relabeled_structure_doc(row["tables"], [0, 2, 1])
        s = tgs.core.structure_from_dict(doc)
        assert tgs.core.canonical_form(s).hex() == row["tables"]
        moved += tgs.core._serialize_tables(
            s.order, s.gamma_size, s.addition, s.ternary).hex() != row["tables"]
    assert moved > 0
