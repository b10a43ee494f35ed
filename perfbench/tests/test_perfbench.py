"""Tests of the benchmark itself (not of the verifier).

Run:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import runners  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times, uncovered_share  # noqa: E402


# ------------------------------------------------------------- determinism

@pytest.fixture(scope="module")
def editable():
    return {spec.name: W.editable_functions(spec.build())
            for spec in W.COLD_SMT}


def test_same_seed_same_module_order():
    for specs in (W.COLD_SMT, W.COLD_IDIOM):
        assert W.module_order(specs, 7) == W.module_order(specs, 7)
        assert sorted(s.name for s in W.module_order(specs, 7)) == \
            sorted(s.name for s in specs)
    orders = {tuple(s.name for s in W.module_order(W.COLD_SMT, seed))
              for seed in range(10)}
    assert len(orders) > 1
    assert W.divmod_level(3) == W.divmod_level(3)
    assert {W.divmod_level(s) for s in range(30)} == set(W.DIVMOD_LEVELS)


def _stream_bytes(seed, editable):
    stream = W.request_stream(seed, W.COLD_SMT, editable, 3)
    return json.dumps(stream, sort_keys=True).encode()


def test_same_seed_byte_identical_stream(editable):
    a = _stream_bytes(11, editable)
    b = _stream_bytes(11, editable)
    c = _stream_bytes(12, editable)
    assert a == b
    assert a != c


def test_every_block_has_the_same_mix(editable):
    stream = W.request_stream(5, W.COLD_SMT, editable, 4)
    per_block = runners._block_size()
    assert len(stream) == 4 * per_block
    for block in range(4):
        reqs = [r for r in stream if r["block"] == block]
        for spec in W.COLD_SMT:
            mine = [r["cls"] for r in reqs if r["module"] == spec.name]
            assert {c: mine.count(c) for c in W.CLASSES} == W.BLOCK_MIX
    for r in stream:
        if r["cls"] in (W.EDIT, W.REJECT):
            assert r["function"] in editable[r["module"]]
            assert r["config"]["analyze"] is True
        if r["cls"] == W.REJECT:
            assert r["verb"] == "diagnose"
            assert r["config"]["job_timeout"] == W.REJECT_JOB_TIMEOUT


def test_edit_sources_build_the_known_answer():
    """An edit adds a true precondition; a reject prepends a false assert."""
    spec = W.COLD_SMT[4]                      # mimalloc.disjoint: fast
    fn_name = W.editable_functions(spec.build())[0]
    for kind in (W.EDIT, W.REJECT):
        namespace: dict = {}
        exec(spec.source(W.edit_source(kind, fn_name, 42)), namespace)
        mod = namespace["build"]()
        fn = mod.functions[fn_name]
        if kind == W.EDIT:
            last = fn.requires[-1]
            assert (last.op, last.lhs.value, last.rhs.value) == (">=", 42, 0)
        else:
            first = fn.body[0]
            assert (first.expr.op, first.expr.lhs.value) == ("<", 42)


# ----------------------------------------------------------------- spans

def _span(id, parent, start, end, thread=1):
    return Span(id, parent, "x", start, end, thread, None)


def test_self_time_of_nested_spans():
    spans = [_span(1, None, 0.0, 10.0),
             _span(2, 1, 1.0, 4.0),
             _span(3, 2, 2.0, 3.0),
             _span(4, 1, 6.0, 7.0)]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(1.0)
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_with_children_on_other_threads():
    # Two worker threads run children of one request span at once: the
    # overlap is subtracted once, and time outside the parent not at all.
    spans = [_span(1, None, 0.0, 10.0, thread=1),
             _span(2, 1, 2.0, 6.0, thread=2),
             _span(3, 1, 4.0, 8.0, thread=3),
             _span(4, 1, 9.0, 12.0, thread=2)]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert st[2] == pytest.approx(4.0)
    assert uncovered_share(spans, 0.0, 20.0) == pytest.approx(8.0 / 20.0)


def test_tracer_links_worker_spans_to_their_request():
    tracer = Tracer()
    calls = []

    class Layer:
        def work(self, depth):
            calls.append(depth)
            if depth:
                self.work(depth - 1)           # recursion: one span

    original = Layer.__dict__["work"]
    tracer.install([(Layer, "work", "layer")])
    try:
        request = tracer.open("client.request")
        tracer.link("req-1", request[0])

        def worker():
            serve = tracer.wrap("server.process", lambda req: Layer().work(2),
                                parent_key=lambda a, k: a[0])
            serve("req-1")

        t = threading.Thread(target=worker)
        t.start()
        t.join(10)
        assert not t.is_alive()
        tracer.close(request)
    finally:
        tracer.uninstall()
    assert Layer.__dict__["work"] is original
    assert calls == [2, 1, 0]
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"client.request", "server.process", "layer"}
    assert by_name["server.process"].parent == by_name["client.request"].id
    assert by_name["layer"].parent == by_name["server.process"].id
    assert by_name["server.process"].thread != by_name["client.request"].thread
    assert by_name["layer"].ctx == "req-1"
    totals = layer_totals(tracer.spans)
    assert totals["layer"]["calls"] == 1
    assert sum(r["self_s"] for r in totals.values()) == pytest.approx(
        by_name["client.request"].end - by_name["client.request"].start)


def test_uninstall_restores_every_entry_point():
    from repro.vc import wp
    claims = layers.Claims()
    before = [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
              for owner, attr, *_ in layers.targets(claims)]
    original_bv = wp.bv_check_sat
    tracer = Tracer()
    tracer.install(layers.targets(claims))
    assert wp.bv_check_sat is not original_bv
    tracer.uninstall()
    for owner, attr, original in before:
        now = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        assert now is original, attr


# ------------------------------------------------------- percentile rule

def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(100, 95) == 5
    assert stats.tail_percentile(list(range(19))) is None
    assert stats.tail_percentile(list(range(99))) is None
    for n, p in ((100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
                 (1000, 99.0), (10000, 99.9)):
        got = stats.tail_percentile(list(range(n)))
        assert got is not None and got[0] == p, (n, got)
        assert stats.samples_beyond(n, p) >= stats.MIN_BEYOND
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)


# ------------------------------------------------------------ host speed

def test_scaling_divides_by_the_reference_speed():
    ref = speed.REF_SECONDS
    assert speed.scaled(3.0, ref, ref) == pytest.approx(3.0)
    # The host ran twice as slow around the unit: half the wall time.
    assert speed.scaled(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert speed.scaled(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert speed.reference_seconds() > 0


# --------------------------------------------------------- known answers

def _reply(cls, status="ok", ok=True, failures=(), path="delta"):
    req = {"cls": cls, "function": "f", "seq": 0, "module": "m"}
    result = {"ok": ok, "failures": [{"function": f} for f in failures],
              "functions": [{"obligations": [{"status": "proved"}]}]}
    return runners.Reply(req, 0.0, 0.001,
                         {"status": status, "result": result,
                          "server": {"path": path}})


def test_reply_checks():
    assert runners.check_reply(_reply(W.DELTA)) == ""
    assert "served by" in runners.check_reply(_reply(W.DELTA, path="warm"))
    assert runners.check_reply(_reply(W.REPLAN, path="cache")) == ""
    assert "did not verify" in runners.check_reply(_reply(W.EDIT, ok=False))
    assert runners.check_reply(
        _reply(W.REJECT, ok=False, failures=["f"])) == ""
    assert "not rejected" in runners.check_reply(_reply(W.REJECT))
    assert "name" in runners.check_reply(
        _reply(W.REJECT, ok=False, failures=["f", "g"]))
    assert "busy" in runners.check_reply(_reply(W.DELTA, status="busy"))


# ---------------------------------------------------------- the contract

def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_smt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
