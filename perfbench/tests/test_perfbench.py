"""Tests of the benchmark's own machinery.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from child import audit_record  # noqa: E402
from run import end_to_end, judge, percentile  # noqa: E402
from spans import LAYERS, Recorder, Tracer, by_layer  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def random_spans(rng, depth=0, start=0.0, end=100.0, parent=None, out=None):
    """Properly nested spans (id, name, start, end, parent) inside [start, end]."""
    out = [] if out is None else out
    t = start
    while depth < 4 and rng.random() < 0.7:
        a = t + rng.uniform(0, (end - t) / 3)
        b = a + rng.uniform(0, (end - a) / 2)
        if b <= a:
            break
        span_id = len(out)
        out.append((span_id, rng.choice("abcd") + ".f", a, b, parent))
        random_spans(rng, depth + 1, a, b, span_id, out)
        t = b
    return out


def reference_self_times(spans):
    """Self time per name: span duration minus the time its children cover."""
    out = {}
    for span_id, name, a, b, _ in spans:
        covered = sum(cb - ca for _, _, ca, cb, p in spans if p == span_id)
        out[name] = out.get(name, 0.0) + (b - a) - covered
    return out


def replay(spans):
    """Make the nested traced calls the spans describe, on a fake clock."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)

    def times(span):
        inner = [t for child in children.get(span[0], []) for t in times(child)]
        return [span[2], *inner, span[3]]

    rec = Recorder(clock=FakeClock([t for top in children.get(None, []) for t in times(top)]))

    def call(span):
        rec.traced(span[1], lambda: [call(child) for child in children.get(span[0], [])])()

    for top in children.get(None, []):
        call(top)
    return rec


@pytest.mark.parametrize("seed", range(20))
def test_recorder_self_times_match_raw_span_arithmetic(seed):
    spans = random_spans(random.Random(seed))
    rec = replay(spans)
    expected = reference_self_times(spans)
    assert rec.stack == []
    assert set(rec.self_s) == set(expected)
    for name, value in expected.items():
        assert rec.self_s[name] == pytest.approx(value, abs=1e-9)
    assert rec.calls == {n: sum(1 for s in spans if s[1] == n) for n in expected}
    # self times of all spans add up to the time the top-level spans cover
    top = sum(b - a for _, _, a, b, p in spans if p is None)
    assert sum(rec.self_s.values()) == pytest.approx(top, abs=1e-9)


def test_wrapper_records_nested_spans_and_fold_credits_parent():
    rec = Recorder(clock=FakeClock([0.0, 1.0, 4.0, 10.0]))
    inner = rec.traced("core.inner", lambda: "x")
    outer = rec.traced("audit.outer", lambda: inner())
    assert outer() == "x"
    assert rec.calls == {"audit.outer": 1, "core.inner": 1}
    assert rec.self_s == {"audit.outer": 7.0, "core.inner": 3.0}
    rec.fold("audit.parallel", 5.0, 4.0)  # 4 of 5 seconds blocked on workers
    assert rec.self_s["audit.parallel"] == 1.0
    assert by_layer(rec.self_s) == {**{layer: 0 for layer in LAYERS}, "audit": 8.0, "core": 3.0}


def test_percentile_interpolates_between_ranks():
    values = [random.Random(i).uniform(0, 50) for i in range(57)]
    assert percentile(values, 50) == pytest.approx(statistics.median(values))
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    assert percentile(values, 90) == pytest.approx(p90)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_end_to_end_takes_medians_over_passes():
    passes = [
        {"sweep_s": 9.0, "ops": [{"id": "a", "s": 1.0}, {"id": "b", "s": 4.0}]},
        {"sweep_s": 5.0, "ops": [{"id": "a", "s": 9.0}, {"id": "b", "s": 2.0}]},
        {"sweep_s": 6.0, "ops": [{"id": "a", "s": 2.0}, {"id": "b", "s": 3.0}]},
    ]
    m = end_to_end(passes, "sampled", 0.1, 2048)
    # a's median is 2 s, b's is 3 s: a slow pass of one call does not show
    assert m["sweep_s"] == 6.0
    assert m["query_ms.p50"] == pytest.approx(2500.0)
    assert m["peak_rss_mb"] == 2.0
    queries = [{"ops": [{"id": "q", "s": t, "query": True} for t in (1.0, 2.0, 3.0)]
                + [{"id": "r", "s": 99.0, "query": False}], "sweep_s": 6.0}]
    assert end_to_end(queries, "model-files", 0.1, 2048)["query_ms.p50"] == pytest.approx(2000.0)


def audit_op(**overrides):
    op = {"id": "thm1-2", "s": 1.0, "problem": None, "digest": "d", "passed": True,
          "violated": 0, "instances": 262_144, "witnesses": 0, "live": 1, "tallied": 2}
    op.update(overrides)
    return op


def test_judge_flags_each_kind_of_failure():
    refs = {"pairs-exhaustive": {"thm1-2": "d"}}
    ok = {"ops": [audit_op()]}
    assert judge("pairs-exhaustive", 0, [ok], refs) == (1, [])
    cases = [
        audit_op(problem="ValueError()"),
        audit_op(passed=False, violated=3),
        audit_op(instances=5),
        audit_op(digest="other"),
    ]
    for op in cases:
        attempted, failures = judge("pairs-exhaustive", 0, [{"ops": [op]}], refs)
        assert attempted == 1 and len(failures) == 1, op
    # a sampled source changes with the seed, so its references hold only
    # at the default seed; exhaustive sweeps are checked at every seed,
    # and repeats of one operation must agree at any seed
    other = {"ops": [audit_op(digest="other", instances=10_000)]}
    sampled_refs = {"sampled": {"thm1-2": "d"}}
    assert len(judge("sampled", 0, [other], sampled_refs)[1]) == 1
    assert judge("sampled", 3, [other], sampled_refs) == (1, [])
    assert len(judge("pairs-exhaustive", 3, [{"ops": [audit_op(digest="other")]}], refs)[1]) == 1
    assert len(judge("sampled", 3, [{"ops": [audit_op()]}, other], sampled_refs)[1]) == 1
    witness = {"ops": [audit_op(id="strict-iteration-gap", witnesses=24, instances=20_000)]}
    assert len(judge("sampled", 0, [witness], {})[1]) == 1
    assert judge("sampled", 1, [witness], {})[1] == []


def test_tracer_keeps_audit_output_and_restores_bindings():
    audit = importlib.import_module("beliefcheck.audit")
    signals = importlib.import_module("beliefcheck.signals")
    core = importlib.import_module("beliefcheck.core")
    source = audit.ModelSource(mode="exhaustive-kripke", n_states=2)
    plain = audit_record(audit.audit("thm1-2", source))
    original = core.BeliefOperator.__dict__["from_table"]
    rec = Recorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        traced = audit_record(audit.audit("thm1-2", source))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert rec.calls["audit.audit"] == 1 and by_layer(rec.calls)["core"] > 0
    assert audit.certain_of is signals.certain_of
    assert core.BeliefOperator.__dict__["from_table"] is original


def child(seed, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "model-files", str(seed), str(trace), "0.01"],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_run_reproduces_untraced_digests():
    plain, traced = child(0, 0), child(0, 1)
    assert [(op["id"], op["digest"]) for op in traced["ops"]] == [
        (op["id"], op["digest"]) for op in plain["ops"]
    ]
    assert all(op["problem"] is None for op in plain["ops"] + traced["ops"])
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    assert judge("model-files", 0, [plain, traced], references) == (2 * len(plain["ops"]), [])
    layers = by_layer(traced["calls"])
    assert all(layers[layer] > 0 for layer in ("cli", "dsl", "core", "games", "signals"))
