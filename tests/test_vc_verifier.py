"""End-to-end tests of the verification pipeline (lang -> VC -> solver)."""

import pytest

from repro.lang import *
from tests.helpers import verify_module


U64_MAX = (1 << 64) - 1


class TestBasics:
    def test_max_with_spec_fn(self):
        mod = Module("t_max")
        ai, bi = var("a", INT), var("b", INT)
        spec_fn(mod, "max2", [("a", INT), ("b", INT)], INT,
                body=ite(ai >= bi, ai, bi))
        a, b = var("a", U64), var("b", U64)
        exec_fn(mod, "max_exec", [("a", U64), ("b", U64)], ret=("res", U64),
                ensures=[var("res", U64).eq(call(mod, "max2", a, b))],
                body=[if_(a >= b, [ret(a)], [ret(b)])])
        assert verify_module(mod).ok

    def test_overflow_detected(self):
        mod = Module("t_overflow")
        x = var("x", U64)
        exec_fn(mod, "incr", [("x", U64)], ret=("r", U64),
                ensures=[var("r", U64).eq(x + 1)],
                body=[ret(x + 1)])
        res = verify_module(mod)
        assert not res.ok
        assert any(o.kind == "overflow" for _, o in res.failures())

    def test_overflow_ruled_out_by_requires(self):
        mod = Module("t_overflow_ok")
        x = var("x", U64)
        exec_fn(mod, "incr", [("x", U64)], ret=("r", U64),
                requires=[x < lit(U64_MAX)],
                ensures=[var("r", U64).eq(x + 1)],
                body=[ret(x + 1)])
        assert verify_module(mod).ok

    def test_nat_subtraction_underflow(self):
        mod = Module("t_nat")
        x, y = var("x", NAT), var("y", NAT)
        exec_fn(mod, "sub", [("x", NAT), ("y", NAT)], ret=("r", NAT),
                body=[ret(x - y)])
        res = verify_module(mod)
        assert not res.ok

    def test_division_by_zero_check(self):
        mod = Module("t_div")
        x, y = var("x", U64), var("y", U64)
        exec_fn(mod, "div", [("x", U64), ("y", U64)], ret=("r", U64),
                body=[ret(x // y)])
        res = verify_module(mod)
        assert not res.ok
        mod2 = Module("t_div_ok")
        exec_fn(mod2, "div", [("x", U64), ("y", U64)], ret=("r", U64),
                requires=[y > 0],
                ensures=[var("r", U64).eq(x // y)],
                body=[ret(x // y)])
        assert verify_module(mod2).ok

    def test_false_postcondition_fails(self):
        mod = Module("t_falsepost")
        x = var("x", INT)
        exec_fn(mod, "id", [("x", INT)], ret=("r", INT),
                ensures=[var("r", INT).eq(x + 1)],
                body=[ret(x)])
        res = verify_module(mod)
        assert not res.ok
        assert res.failures()[0][1].kind == "ensures"


class TestControlFlow:
    def test_if_merging(self):
        mod = Module("t_if")
        x = var("x", INT)
        exec_fn(mod, "abs", [("x", INT)], ret=("r", INT),
                ensures=[var("r", INT) >= 0,
                         or_all(var("r", INT).eq(x),
                                var("r", INT).eq(x.neg()))],
                body=[
                    let_("r", x),
                    if_(x < 0, [assign("r", x.neg())]),
                    ret(var("r", INT)),
                ])
        assert verify_module(mod).ok

    def test_early_return_paths(self):
        mod = Module("t_early")
        x = var("x", INT)
        exec_fn(mod, "clamp", [("x", INT)], ret=("r", INT),
                ensures=[var("r", INT) >= 0, var("r", INT) <= 10],
                body=[
                    if_(x < 0, [ret(lit(0))]),
                    if_(x > 10, [ret(lit(10))]),
                    ret(x),
                ])
        assert verify_module(mod).ok

    def test_loop_with_invariant(self):
        mod = Module("t_loop")
        n, i, r = var("n", U64), var("i", U64), var("r", U64)
        exec_fn(mod, "count", [("n", U64)], ret=("res", U64),
                ensures=[var("res", U64).eq(n)],
                body=[
                    let_("i", lit(0, U64)),
                    let_("r", lit(0, U64)),
                    while_(i < n,
                           invariants=[i <= n, r.eq(i)],
                           body=[assign("i", i + 1), assign("r", r + 1)],
                           decreases=n - i),
                    ret(r),
                ])
        assert verify_module(mod).ok

    def test_loop_invariant_not_preserved(self):
        mod = Module("t_badloop")
        n, i = var("n", U64), var("i", U64)
        exec_fn(mod, "bad", [("n", U64)], ret=("res", U64),
                body=[
                    let_("i", lit(0, U64)),
                    while_(i < n,
                           invariants=[i.eq(0)],  # broken by i += 1
                           body=[assign("i", i + 1)],
                           decreases=n - i),
                    ret(i),
                ])
        res = verify_module(mod)
        assert not res.ok
        assert any("preserved" in o.label for _, o in res.failures())

    def test_loop_termination_failure(self):
        mod = Module("t_nonterm")
        n, i = var("n", U64), var("i", U64)
        exec_fn(mod, "spin", [("n", U64)], ret=("res", U64),
                body=[
                    let_("i", lit(0, U64)),
                    while_(i < n,
                           invariants=[i <= n],
                           body=[assign("i", i)],  # no progress
                           decreases=n - i),
                    ret(i),
                ])
        res = verify_module(mod)
        assert not res.ok
        assert any(o.kind == "termination" for _, o in res.failures())


class TestCalls:
    def test_call_precondition_checked(self):
        mod = Module("t_callpre")
        x = var("x", U64)
        exec_fn(mod, "needs_pos", [("x", U64)], ret=("r", U64),
                requires=[x > 0],
                ensures=[var("r", U64).eq(x - 1)],
                body=[ret(x - 1)])
        exec_fn(mod, "caller_bad", [("x", U64)], ret=("r", U64),
                body=[call_stmt("needs_pos", [x], binds=["y"]),
                      ret(var("y", U64))])
        res = verify_module(mod)
        assert not res.ok
        assert any(o.kind == "requires" for _, o in res.failures())

    def test_call_postcondition_used(self):
        mod = Module("t_callpost")
        x = var("x", U64)
        exec_fn(mod, "bump", [("x", U64)], ret=("r", U64),
                requires=[x < lit(100)],
                ensures=[var("r", U64).eq(x + 1)],
                body=[ret(x + 1)])
        exec_fn(mod, "twice", [("x", U64)], ret=("r", U64),
                requires=[x < lit(50)],
                ensures=[var("r", U64).eq(x + 2)],
                body=[
                    call_stmt("bump", [x], binds=["a"]),
                    call_stmt("bump", [var("a", U64)], binds=["b"]),
                    ret(var("b", U64)),
                ])
        assert verify_module(mod).ok

    def test_mut_param_callee_and_caller(self):
        mod = Module("t_mut")
        x = var("x", U64)
        exec_fn(mod, "zero_out", [("x", U64)], mut=["x"],
                ensures=[x.eq(0)],
                body=[assign("x", lit(0, U64))])
        exec_fn(mod, "use_it", [("y", U64)], ret=("r", U64),
                ensures=[var("r", U64).eq(0)],
                body=[
                    let_("local", var("y", U64)),
                    call_stmt("zero_out", [var("local", U64)],
                              mut_args=["local"]),
                    ret(var("local", U64)),
                ])
        assert verify_module(mod).ok

    def test_old_in_mut_ensures(self):
        mod = Module("t_old")
        x = var("x", U64)
        exec_fn(mod, "incr_mut", [("x", U64)], mut=["x"],
                requires=[x < lit(100)],
                ensures=[x.eq(old("x", U64) + 1)],
                body=[assign("x", x + 1)])
        assert verify_module(mod).ok


class TestSeqAndStruct:
    def test_pop_front_figure2(self):
        SeqI = SeqType(INT)
        mod = Module("t_pop")
        s = var("s", SeqI)
        pair = StructType("T2PopResult").declare(
            [("value", INT), ("rest", SeqI)])
        exec_fn(mod, "pop_front", [("s", SeqI)], ret=("out", pair),
                requires=[s.length() > 0],
                ensures=[
                    var("out", pair).field("value").eq(s.index(0)),
                    ext_eq(var("out", pair).field("rest"), s.skip(1)),
                ],
                body=[
                    let_("v", s.index(0)),
                    let_("rest", s.skip(1)),
                    ret(struct(pair, value=var("v", INT),
                               rest=var("rest", SeqI))),
                ])
        assert verify_module(mod).ok

    def test_index_out_of_bounds_detected(self):
        SeqI = SeqType(INT)
        mod = Module("t_oob")
        s = var("s", SeqI)
        exec_fn(mod, "first", [("s", SeqI)], ret=("r", INT),
                body=[ret(s.index(0))])  # missing len > 0
        res = verify_module(mod)
        assert not res.ok
        assert any(o.kind == "bounds" for _, o in res.failures())

    def test_quantified_loop_invariant_over_seq(self):
        SeqI = SeqType(INT)
        mod = Module("t_fill")
        a = var("a", SeqI)
        k, i, out = var("k", INT), var("i", INT), var("out", SeqI)
        exec_fn(mod, "fill_zero", [("a", SeqI)], ret=("out", SeqI),
                ensures=[
                    out.length().eq(a.length()),
                    forall([("k", INT)],
                           and_all(lit(0) <= k, k < a.length()).implies(
                               out.index(k).eq(0))),
                ],
                body=[
                    let_("i", lit(0, INT)),
                    let_("out", a),
                    while_(i < out.length(),
                           invariants=[
                               lit(0) <= i,
                               out.length().eq(a.length()),
                               i <= a.length(),
                               forall([("k", INT)],
                                      and_all(lit(0) <= k, k < i).implies(
                                          out.index(k).eq(0))),
                           ],
                           body=[
                               assign("out", out.update(i, lit(0))),
                               assign("i", i + 1),
                           ],
                           decreases=a.length() - i),
                    ret(out),
                ])
        assert verify_module(mod).ok

    def test_struct_update(self):
        Point = StructType("T2Point").declare([("x", INT), ("y", INT)])
        mod = Module("t_structup")
        p = var("p", Point)
        exec_fn(mod, "move_x", [("p", Point)], ret=("q", Point),
                ensures=[
                    var("q", Point).field("x").eq(p.field("x") + 1),
                    var("q", Point).field("y").eq(p.field("y")),
                ],
                body=[ret(struct_update(p, x=p.field("x") + 1))])
        assert verify_module(mod).ok

    def test_enum_match_reasoning(self):
        Opt = EnumType("T2Opt").declare(
            {"None_": [], "Some": [("v", INT)]})
        mod = Module("t_enum")
        o = var("o", Opt)
        exec_fn(mod, "unwrap_or_zero", [("o", Opt)], ret=("r", INT),
                ensures=[
                    o.is_variant("Some").implies(
                        var("r", INT).eq(o.get("Some", "v"))),
                    o.is_variant("None_").implies(var("r", INT).eq(0)),
                ],
                body=[
                    if_(o.is_variant("Some"),
                        [ret(o.get("Some", "v"))],
                        [ret(lit(0))]),
                ])
        assert verify_module(mod).ok

    def test_map_reasoning(self):
        MI = MapType(INT, INT)
        mod = Module("t_map")
        m = var("m", MI)
        k, v = var("k", INT), var("v", INT)
        exec_fn(mod, "put_get", [("m", MI), ("k", INT), ("v", INT)],
                ret=("r", INT),
                ensures=[var("r", INT).eq(v)],
                body=[
                    let_("m2", m.insert(k, v)),
                    ret(var("m2", MI).map_index(k)),
                ])
        assert verify_module(mod).ok

    def test_map_missing_key_detected(self):
        MI = MapType(INT, INT)
        mod = Module("t_mapmiss")
        m = var("m", MI)
        exec_fn(mod, "get", [("m", MI)], ret=("r", INT),
                body=[ret(m.map_index(lit(0)))])
        res = verify_module(mod)
        assert not res.ok


class TestByStrategies:
    def test_assert_by_bit_vector(self):
        mod = Module("t_bv")
        x = var("x", U64)
        exec_fn(mod, "mask_is_mod", [("x", U64)], ret=("r", U64),
                ensures=[var("r", U64).eq(x % 512)],
                body=[
                    assert_((x & lit(511)).eq(x % 512), by=BY_BIT_VECTOR),
                    ret(x & lit(511)),
                ])
        assert verify_module(mod).ok

    def test_assert_by_bit_vector_false(self):
        mod = Module("t_bv_bad")
        x = var("x", U64)
        exec_fn(mod, "bad", [("x", U64)],
                body=[assert_((x & lit(3)).eq(x % 8), by=BY_BIT_VECTOR)])
        res = verify_module(mod)
        assert not res.ok

    def test_assert_by_nonlinear(self):
        mod = Module("t_nl")
        q, a = var("q", U64), var("a", U64)
        # the paper's §3.3 example
        exec_fn(mod, "f", [("q", U64), ("a", U64)],
                requires=[q > 2],
                body=[assert_(
                    (q > 2).implies(
                        ((a * a + 1) * q) >= ((a * a + 1) * 2)),
                    by=BY_NONLINEAR)])
        assert verify_module(mod).ok

    def test_nonlinear_isolation(self):
        # Without forwarding the premise, the isolated query must fail,
        # even though the enclosing context knows q > 2.
        mod = Module("t_nl_iso")
        q, a = var("q", U64), var("a", U64)
        exec_fn(mod, "f", [("q", U64), ("a", U64)],
                requires=[q > 2],
                body=[assert_(
                    ((a * a + 1) * q) >= ((a * a + 1) * 2),
                    by=BY_NONLINEAR)])
        res = verify_module(mod)
        assert not res.ok

    def test_assert_by_integer_ring(self):
        mod = Module("t_ring")
        a, b, c = var("a", INT), var("b", INT), var("c", INT)
        exec_fn(mod, "subtract_mod_eq_zero",
                [("a", INT), ("b", INT), ("c", INT)],
                requires=[(a % c).eq(0), (b % c).eq(0), c > 0],
                body=[assert_(((b - a) % c).eq(0), by=BY_INTEGER_RING,
                              premises=[(a % c).eq(0), (b % c).eq(0)])])
        assert verify_module(mod).ok

    def test_assert_by_compute(self):
        mod = Module("t_compute")
        n = var("n", INT)
        spec_fn(mod, "fact", [("n", INT)], INT,
                body=ite(n <= 0, lit(1), n * rec_call("fact", INT, n - 1)))
        exec_fn(mod, "check_table", [],
                body=[assert_(call(mod, "fact", lit(6)).eq(720),
                              by=BY_COMPUTE)])
        assert verify_module(mod).ok

    def test_count_idioms(self):
        mod = Module("t_idioms")
        x = var("x", U64)
        exec_fn(mod, "f", [("x", U64)], body=[
            assert_((x & lit(1)) <= 1, by=BY_BIT_VECTOR),
            assert_((x * x) >= 0, by=BY_NONLINEAR),
        ])
        counts = count_idioms(mod)
        assert counts[BY_BIT_VECTOR] == 1
        assert counts[BY_NONLINEAR] == 1


class TestPruning:
    def _module_with_many_specs(self, n=20):
        mod = Module("t_prune")
        x = var("x", INT)
        for i in range(n):
            spec_fn(mod, f"unused_{i}", [("x", INT)], INT, body=x + i)
        spec_fn(mod, "double", [("x", INT)], INT, body=x * 2)
        exec_fn(mod, "use_double", [("x", INT)], ret=("r", INT),
                requires=[x >= 0, x < 1000],
                ensures=[var("r", INT).eq(call(mod, "double", x))],
                body=[ret(x + x)])
        return mod

    def test_pruning_shrinks_queries(self):
        mod = self._module_with_many_specs()
        pruned = verify_module(mod, VcConfig(prune_context=True))
        full = verify_module(mod, VcConfig(prune_context=False))
        assert pruned.ok and full.ok
        assert pruned.query_bytes < full.query_bytes

    def test_reachable_specs_through_calls(self):
        from repro.vc.wp import VcGen
        mod = Module("t_reach")
        x = var("x", INT)
        spec_fn(mod, "inner", [("x", INT)], INT, body=x + 1)
        spec_fn(mod, "outer", [("x", INT)], INT,
                body=call(mod, "inner", x) + 1)
        spec_fn(mod, "unrelated", [("x", INT)], INT, body=x)
        fn = exec_fn(mod, "go", [("x", INT)], ret=("r", INT),
                     requires=[x < 100],
                     ensures=[var("r", INT).eq(call(mod, "outer", x))],
                     body=[ret(x + 2)])
        gen = VcGen(mod)
        names = {f.name for f in gen.reachable_spec_fns(fn)}
        assert names == {"outer", "inner"}


# Plans both Fig. 7a list modules and prints every obligation's digest.
_DIGEST_SCRIPT = """
import json
from repro.millibench.lists import (build_doubly_linked_module,
                                    build_singly_linked_module)
from repro.smt import terms as T
from repro.smt.fingerprint import obligation_digest
from repro.vc import ast as A
from repro.vc.wp import VcGen

out = []
for build in (build_singly_linked_module, build_doubly_linked_module):
    gen = VcGen(build())
    for fn in gen.module.functions.values():
        if fn.mode not in (A.EXEC, A.PROOF) or fn.body is None:
            continue
        plan = gen.plan_function(fn)
        for item in plan.pending:
            if item.direct_result is not None:
                continue
            kept, _ = gen.obligation_context(item, plan.encoder,
                                             plan.spec_axioms)
            out.append(obligation_digest(
                kept + list(item.assumptions) + [T.Not(item.goal)], {}))
print(json.dumps(out))
"""


class TestHashSeedStability:
    """Obligation text (and so every proof-cache digest) must not depend
    on the per-process string-hash seed: a cache warmed by one process
    has to serve the next."""

    @staticmethod
    def _digests(hashseed: str) -> list:
        import json
        import os
        import subprocess
        import sys
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT],
                              capture_output=True, text=True, env=env,
                              cwd=root, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return json.loads(proc.stdout.splitlines()[-1])

    def test_loop_havoc_names_do_not_depend_on_hash_seed(self):
        # Seeds 1 and 2 order the loop-modified variables of the list
        # modules differently when the havoc loop follows set order.
        first = self._digests("1")
        assert len(first) > 30
        assert self._digests("2") == first
