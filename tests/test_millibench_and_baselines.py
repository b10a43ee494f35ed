"""Tests for the §4.1 millibench modules and the baseline pipelines."""

import os

import pytest

from repro.baselines.pipelines import (PIPELINES, Unsupported,
                                       time_pipeline)
from repro.epr import verify_epr_module
from repro.millibench.distlock import (build_default_module,
                                       build_epr_module)
from repro.millibench.lists import (build_doubly_linked_module,
                                    build_memory_reasoning_module,
                                    build_singly_linked_module)
from repro.vc.wp import VcGen


class TestListModules:
    def test_singly_linked_verifies(self):
        res = VcGen(build_singly_linked_module()).verify_module()
        assert res.ok, res.report()

    def test_doubly_linked_verifies(self):
        res = VcGen(build_doubly_linked_module()).verify_module()
        assert res.ok, res.report()

    def test_memory_reasoning_small(self):
        res = VcGen(build_memory_reasoning_module(2)).verify_module()
        assert res.ok, res.report()

    def test_doubly_linked_flagged_cyclic(self):
        assert build_doubly_linked_module().attrs_get("uses_cyclic")


class TestPipelines:
    @pytest.mark.parametrize("name", ["verus", "dafny", "fstar", "creusot",
                                      "prusti"])
    def test_pipeline_verifies_single_list(self, name):
        res, secs = time_pipeline(PIPELINES[name],
                                  build_singly_linked_module())
        assert res is not None and res.ok, name

    def test_prusti_rejects_cyclic(self):
        with pytest.raises(Unsupported):
            PIPELINES["prusti"].verify(build_doubly_linked_module())

    def test_ivy_rejects_non_epr(self):
        with pytest.raises(Unsupported):
            PIPELINES["ivy"].verify(build_singly_linked_module())

    def test_ivy_accepts_epr_module(self):
        res = PIPELINES["ivy"].verify(build_epr_module())
        assert res.ok

    def test_heap_pipelines_ship_bigger_queries(self):
        module = build_singly_linked_module()
        verus, _ = time_pipeline(PIPELINES["verus"], module)
        dafny, _ = time_pipeline(PIPELINES["dafny"], module)
        fstar, _ = time_pipeline(PIPELINES["fstar"], module)
        assert dafny.query_bytes > verus.query_bytes
        assert fstar.query_bytes > dafny.query_bytes

    def test_heap_encoding_is_sound_on_failures(self):
        # a buggy module must fail under every pipeline, not just Verus
        from repro.lang import INT, Module, exec_fn, ret, var
        mod = Module("bad_everywhere")
        x = var("x", INT)
        exec_fn(mod, "wrong", [("x", INT)], ret=("r", INT),
                ensures=[var("r", INT).eq(x + 1)],
                body=[ret(x)])
        for name in ("verus", "dafny", "creusot"):
            res, _ = time_pipeline(PIPELINES[name], mod)
            assert res is not None and not res.ok, name


def _signature(res) -> tuple:
    return (res.ok, res.query_bytes,
            [(f.name, f.query_bytes,
              [(o.label, o.status) for o in f.obligations])
             for f in res.functions])


class TestPipelineMatrix:
    """Every shipped pipeline discharges through the same scheduler
    path, so serial, ``jobs=2``, warm-context and cache cold/warm runs
    must agree per obligation, query bytes included."""

    MODES = {"serial": {}, "jobs2": {"REPRO_JOBS": "2"},
             "incremental": {"REPRO_INCREMENTAL": "1"}}

    @pytest.mark.parametrize("name", ["verus", "dafny", "fstar", "creusot",
                                      "prusti"])
    def test_modes_agree(self, name, tmp_path, monkeypatch):
        for knob in [k for k in os.environ if k.startswith("REPRO_")]:
            monkeypatch.delenv(knob)
        builders = [build_singly_linked_module]
        if name != "prusti":     # Prusti cannot express cyclic lists
            builders.append(build_doubly_linked_module)
        pipeline = PIPELINES[name]
        for build in builders:
            runs = {}
            for mode, env in self.MODES.items():
                with monkeypatch.context() as m:
                    for knob, value in env.items():
                        m.setenv(knob, value)
                    runs[mode] = _signature(pipeline.verify(build()))
            with monkeypatch.context() as m:
                m.setenv("REPRO_CACHE_DIR", str(tmp_path / build.__name__))
                runs["cold"] = _signature(pipeline.verify(build()))
                warm = pipeline.verify(build())
                assert warm.stats.get("cache_misses", 0) == 0
                runs["warm"] = _signature(warm)
            assert runs["serial"][0], (name, build.__name__)
            for mode, sig in runs.items():
                assert sig == runs["serial"], (name, build.__name__, mode)


class TestDistributedLock:
    def test_default_mode(self):
        res = VcGen(build_default_module()).verify_module()
        assert res.ok, res.report()

    def test_epr_mode(self):
        res = verify_epr_module(build_epr_module())
        assert res.ok, res.report()

    def test_safety_is_not_vacuous(self):
        # mutual_exclusion really depends on the invariant: removing the
        # locked-uniqueness conjunct makes it fail
        from repro.lang import (BOOL, Function, Module, Param, call,
                                proof_fn, var)
        from repro.millibench.distlock import Node, State
        mod = Module("distlock_vacuity_check")
        mod.add(Function("locked2", "spec",
                         [Param("s", State), Param("n", Node)],
                         ("result", BOOL)))
        s = var("s", State)
        n1, n2 = var("n1", Node), var("n2", Node)
        proof_fn(mod, "mutex_without_invariant",
                 [("s", State), ("n1", Node), ("n2", Node)],
                 requires=[call(mod, "locked2", s, n1),
                           call(mod, "locked2", s, n2)],
                 ensures=[n1.eq(n2)], body=[])
        res = VcGen(mod).verify_module()
        assert not res.ok
