"""Verification-condition generation by symbolic execution.

For each exec/proof function the engine:

1. binds parameters to fresh SMT constants and assumes their type ranges,
2. symbolically executes the body, maintaining a substitution environment
   and a path-ordered assumption list (if/else merges with ITE, loops use
   invariant havoc — standard Floyd-Hoare),
3. emits one labeled :class:`Obligation` per check — preconditions at call
   sites, overflow/bounds side conditions, asserts, loop invariants,
   postconditions — and discharges each with a fresh DPLL(T) instance that
   receives *only* the axioms the obligation's translation pulled in
   (context pruning, §3.1),
4. dispatches ``assert ... by(...)`` obligations to the §3.3 idiom engines
   instead of the main solver, mirroring Verus's isolation design.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from ..smt import terms as T
from ..smt.bitvec import bv_check_sat
from ..smt.compute import ComputeEnv, OutOfFuel, prove_by_compute
from ..smt.nonlinear import prove_nonlinear
from ..smt.quant import CONSERVATIVE
from ..smt.ring import RingError, prove_ring
from ..smt.solver import SmtSolver, SolverConfig, UNSAT
from ..smt.sorts import bv as bv_sort
from . import ast as A
from . import types as VT
from .encode import EncodeError, Encoder
from .errors import (FAILED, PROVED, RESOURCE_OUT, TIMEOUT, FunctionResult,
                     ModuleResult, Obligation, status_from_solver)


class VcConfig:
    """Verifier configuration; defaults model Verus."""

    def __init__(self,
                 trigger_policy: str = CONSERVATIVE,
                 prune_context: bool = True,
                 solver_config: Optional[SolverConfig] = None,
                 check_overflow: bool = True,
                 mbqi: bool = False):
        self.trigger_policy = trigger_policy
        self.prune_context = prune_context
        self.check_overflow = check_overflow
        self.mbqi = mbqi
        self.solver_config = solver_config

    def make_solver_config(self) -> SolverConfig:
        if self.solver_config is not None:
            return self.solver_config
        return SolverConfig(trigger_policy=self.trigger_policy,
                            mbqi=self.mbqi)


class VcError(Exception):
    """Malformed program (not a failed proof)."""


class _State:
    """Mutable symbolic-execution state."""

    __slots__ = ("env", "assumptions", "returned")

    def __init__(self, env: dict, assumptions: list, returned: bool = False):
        self.env = env
        self.assumptions = assumptions
        self.returned = returned

    def fork(self) -> "_State":
        return _State(dict(self.env), list(self.assumptions), self.returned)


class _PendingObligation:
    __slots__ = ("obligation", "goal", "assumptions", "direct_result")

    def __init__(self, obligation: Obligation, goal: Optional[T.Term],
                 assumptions: list, direct_result: Optional[bool] = None):
        self.obligation = obligation
        self.goal = goal
        self.assumptions = assumptions
        self.direct_result = direct_result  # idiom engines decide eagerly


class FunctionPlan:
    """One function's emitted-but-undischarged obligations.

    ``pending`` carries the labeled goals with their path assumptions;
    ``encoder``/``spec_axioms`` supply the context axioms every job ships
    with.  The scheduler (or the eager :meth:`VcGen.verify_function`
    path) turns the plan into a populated ``result``.
    """

    __slots__ = ("fn", "result", "pending", "encoder", "spec_axioms",
                 "gen_seconds")

    def __init__(self, fn: A.Function, result: FunctionResult,
                 pending: list, encoder: Encoder, spec_axioms: list):
        self.fn = fn
        self.result = result
        self.pending = pending
        self.encoder = encoder
        self.spec_axioms = spec_axioms
        self.gen_seconds = 0.0


class VcGen:
    """Verifies a module function-by-function."""

    # Set (and restored) by the scheduler for the duration of a run, so
    # the §3.3 idiom engines — which resolve eagerly during planning —
    # can reuse cached verdicts through the same content-addressed store
    # as the SMT obligations.
    proof_cache = None

    def __init__(self, module: A.Module, config: Optional[VcConfig] = None):
        self.module = module
        self.config = config or VcConfig()
        self._fresh = [0]

    # ------------------------------------------------------------- public

    def verify_module(self, scheduler=None) -> ModuleResult:
        """Verify every exec/proof function via the obligation scheduler.

        With no ``scheduler`` argument, the env-configured default
        ``Session().scheduler()`` is used: serial in-process discharge
        (byte-identical to eager verification) unless
        ``REPRO_JOBS``/``REPRO_CACHE_DIR`` request parallelism or proof
        caching.
        """
        if scheduler is None:
            from ..api import Session
            scheduler = Session().scheduler()
        return scheduler.run_module(self)

    CTX_CLS: type  # set below; baseline pipelines substitute their own

    def plan_function(self, fn: A.Function) -> FunctionPlan:
        """Symbolically execute ``fn`` and *emit* its obligations as
        self-contained jobs instead of eagerly discharging them."""
        t0 = time.perf_counter()
        encoder = Encoder()
        ctx = self.CTX_CLS(self, fn, encoder)
        pending = ctx.run()
        spec_axioms = self._spec_axioms(fn, encoder, ctx)
        plan = FunctionPlan(fn, FunctionResult(fn.name), pending, encoder,
                            spec_axioms)
        plan.gen_seconds = time.perf_counter() - t0
        return plan

    def verify_function(self, fn: A.Function) -> FunctionResult:
        """Eagerly plan and discharge one function (serial, cache-less)."""
        t0 = time.perf_counter()
        plan = self.plan_function(fn)
        for item in plan.pending:
            self._discharge(item, plan.encoder, plan.spec_axioms,
                            plan.result)
        plan.result.seconds = time.perf_counter() - t0
        return plan.result

    # --------------------------------------------------------- spec axioms

    def reachable_spec_fns(self, fn: A.Function) -> list[A.Function]:
        """Spec functions reachable from fn's specs/body (context pruning)."""
        all_fns = self.module.all_functions()
        if not self.config.prune_context:
            return [f for f in all_fns.values()
                    if f.is_spec and f.body is not None]
        seen: dict[str, A.Function] = {}
        work: list = []

        def scan_expr(e: A.Expr):
            work.append(e)

        for e in list(fn.requires) + list(fn.ensures):
            scan_expr(e)
        # The function's own decreases clause is part of its verification
        # surface (termination obligations translate it), so spec fns it
        # references need their definitional axioms — and must count as
        # dependencies in the delta fingerprint.
        if isinstance(fn.decreases, A.Expr):
            scan_expr(fn.decreases)
        self._scan_body(fn.body, scan_expr)
        while work:
            e = work.pop()
            for sub in _walk_expr(e):
                if isinstance(sub, A.Call) and sub.fn_name not in seen:
                    try:
                        callee = self.module.lookup(sub.fn_name)
                    except KeyError:
                        continue
                    if callee.is_spec and callee.body is not None:
                        seen[sub.fn_name] = callee
                        work.append(callee.body)
                    elif not callee.is_spec:
                        for spec in list(callee.requires) + list(callee.ensures):
                            work.append(spec)
        return list(seen.values())

    def _scan_body(self, body, sink: Callable) -> None:
        if body is None:
            return
        if isinstance(body, A.Expr):
            sink(body)
            return
        for stmt in body:
            for e in _stmt_exprs(stmt):
                sink(e)
            if isinstance(stmt, A.SIf):
                self._scan_body(stmt.then, sink)
                self._scan_body(stmt.els, sink)
            elif isinstance(stmt, A.SWhile):
                self._scan_body(stmt.body, sink)
            elif isinstance(stmt, A.SCall):
                try:
                    callee = self.module.lookup(stmt.fn_name)
                except KeyError:
                    continue
                for e in list(callee.requires) + list(callee.ensures):
                    sink(e)

    def _spec_axioms(self, fn: A.Function, encoder: Encoder,
                     ctx: "_FnCtx") -> list[T.Term]:
        axioms = []
        for spec in self.reachable_spec_fns(fn):
            axioms.append(self._definitional_axiom(spec, encoder, ctx))
        return axioms

    def _definitional_axiom(self, spec: A.Function, encoder: Encoder,
                            ctx: "_FnCtx") -> T.Term:
        decl = ctx.spec_decl(spec)
        bound = [T.Var(f"def!{spec.name}!{p.name}", encoder.sort_of(p.vtype))
                 for p in spec.params]
        env = {p.name: b for p, b in zip(spec.params, bound)}
        body_t = ctx.tr(spec.body, env, spec_mode=True)
        app = decl(*bound)
        guards = []
        for p, b in zip(spec.params, bound):
            rng = encoder.range_assumption(p.vtype, b)
            if rng is not None:
                guards.append(rng)
        eq = T.Eq(app, body_t)
        formula = T.Implies(T.And(*guards), eq) if guards else eq
        return T.ForAll(bound, formula, triggers=[[app]])

    # ----------------------------------------------------------- dispatch

    def _discharge(self, item: _PendingObligation, encoder: Encoder,
                   spec_axioms: list, fnres: FunctionResult) -> None:
        ob = item.obligation
        t0 = time.perf_counter()
        if item.direct_result is not None:
            ob.status = PROVED if item.direct_result else FAILED
            ob.seconds = time.perf_counter() - t0
            fnres.obligations.append(ob)
            return
        status, stats, query_bytes = self._solve_obligation(
            item, encoder, spec_axioms)
        ob.status = status
        ob.seconds = time.perf_counter() - t0
        ob.stats = stats
        fnres.query_bytes += query_bytes
        fnres.obligations.append(ob)

    def obligation_context(self, item: _PendingObligation, encoder: Encoder,
                           spec_axioms: list) -> tuple[list, list]:
        """Per-obligation context pruning: (kept, dropped) context axioms.

        The function-level reachable set is sharpened per goal — axioms
        (encoder theory axioms and spec-function definitions alike) whose
        necessary trigger symbol is unreachable from this obligation's
        goal and path assumptions (transitively through kept axiom
        bodies) are dropped before encoding.  Disabled along with the
        function-level pass by ``VcConfig.prune_context``.
        """
        ctx = self.context_axioms(encoder, spec_axioms)
        if not self.config.prune_context or item.goal is None:
            return ctx, []
        from .prune import prune_axioms
        return prune_axioms(ctx, item.goal, item.assumptions)

    def _solve_obligation(self, item: _PendingObligation, encoder: Encoder,
                          spec_axioms: list,
                          solver_config: Optional[SolverConfig] = None
                          ) -> tuple[str, dict, int]:
        """Run one solver attempt; baselines override the retry strategy."""
        solver = SmtSolver(solver_config or self.config.make_solver_config())
        kept, dropped = self.obligation_context(item, encoder, spec_axioms)
        if dropped:
            from .prune import bytes_saved
            solver.stats.pruned_axioms += len(dropped)
            solver.stats.query_bytes_saved += bytes_saved(dropped)
        for ax in kept:
            solver.add(ax)
        for assumption in item.assumptions:
            solver.add(assumption)
        solver.add(T.Not(item.goal))
        verdict = solver.check()
        status = status_from_solver(verdict, solver)
        stats = solver.stats.snapshot()
        if status == RESOURCE_OUT:
            stats["resource_out"] = 1
        return status, stats, solver.stats.query_bytes

    def context_axioms(self, encoder: Encoder, spec_axioms: list
                       ) -> list[T.Term]:
        """The axiom context shipped with every query (pruned for Verus)."""
        return list(encoder.axioms) + list(spec_axioms)

    def _idiom_cached(self, engine: str, terms: Sequence[T.Term],
                      compute: Callable[[], bool]) -> bool:
        """Discharge a §3.3 idiom obligation through the proof cache.

        Idiom engines are pure functions of their translated terms, so
        their verdicts are content-addressable exactly like SMT queries.
        With no cache attached this is just ``compute()``.
        """
        cache = self.proof_cache
        if cache is None:
            return compute()
        from ..smt.fingerprint import idiom_digest
        digest = idiom_digest(engine, terms)
        entry = cache.lookup(digest)
        if entry is not None:
            return entry["status"] == PROVED
        ok = compute()
        cache.store(digest, PROVED if ok else FAILED, {"engine": engine}, 0,
                    label=f"by({engine})")
        return ok

    def fresh(self, prefix: str) -> str:
        self._fresh[0] += 1
        return f"{prefix}!{self._fresh[0]}"


# ---------------------------------------------------------------------------
# Per-function symbolic execution
# ---------------------------------------------------------------------------

class _FnCtx:
    def __init__(self, gen: VcGen, fn: A.Function, encoder: Encoder):
        self.gen = gen
        self.fn = fn
        self.encoder = encoder
        self.module = gen.module
        self.pending: list[_PendingObligation] = []
        self.old_env: dict[str, T.Term] = {}
        self._spec_decls: dict[str, T.FuncDecl] = {}
        self._compute_env: Optional[ComputeEnv] = None
        self._local_types: dict[str, VT.VType] = {}
        # Source provenance of the statement being executed; obligations
        # emitted while it is current inherit it (ensures obligations
        # fall back to the function's own span).
        self._cur_span = fn.span

    # -------------------------------------------------------------- setup

    def run(self) -> list[_PendingObligation]:
        fn = self.fn
        env: dict[str, T.Term] = {}
        assumptions: list[T.Term] = []
        self.setup_params(env, assumptions)
        self.old_env = dict(env)
        for req in fn.requires:
            assumptions.append(self.tr(req, env, spec_mode=True))
        state = _State(env, assumptions)
        body = fn.body
        if body is None:
            body = []
        if isinstance(body, A.Expr):
            # expression-bodied exec fn: treat as return expr
            body = [A.SReturn(body)]
        self.exec_block(body, state)
        if not state.returned:
            self._check_ensures(state, ret_term=None)
        return self.pending

    def setup_params(self, env: dict, assumptions: list) -> None:
        for p in self.fn.params:
            v = T.Var(f"{self.fn.name}!{p.name}",
                      self.encoder.sort_of(p.vtype))
            env[p.name] = v
            rng = self.encoder.range_assumption(p.vtype, v)
            if rng is not None:
                assumptions.append(rng)

    def spec_decl(self, spec: A.Function) -> T.FuncDecl:
        decl = self._spec_decls.get(spec.name)
        if decl is None:
            if spec.ret is None:
                raise VcError(f"spec fn {spec.name} needs a return type")
            decl = self.encoder.fn(
                f"spec.{spec.name}",
                [self.encoder.sort_of(p.vtype) for p in spec.params],
                self.encoder.sort_of(spec.ret[1]))
            self._spec_decls[spec.name] = decl
        return decl

    # -------------------------------------------------------- obligations

    def _oblige(self, state: _State, goal: T.Term, label: str,
                kind: str) -> None:
        ob = Obligation(f"{self.fn.name}: {label}", kind)
        ob.seq = len(self.pending)
        ob.span = self._cur_span
        self.pending.append(
            _PendingObligation(ob, goal, list(state.assumptions)))

    def _oblige_direct(self, result: bool, label: str, kind: str) -> None:
        ob = Obligation(f"{self.fn.name}: {label}", kind)
        ob.seq = len(self.pending)
        ob.span = self._cur_span
        self.pending.append(_PendingObligation(ob, None, [], result))

    # --------------------------------------------------------- statements

    def exec_block(self, stmts: Sequence[A.Stmt], state: _State) -> None:
        for stmt in stmts:
            if state.returned:
                return
            self.exec_stmt(stmt, state)

    def exec_stmt(self, stmt: A.Stmt, state: _State) -> None:
        if stmt.span is not None:
            self._cur_span = stmt.span
        if isinstance(stmt, (A.SLet, A.SAssign)):
            value = self.tr_checked(stmt.expr, state)
            self.assign_var(state, stmt.name, value, stmt.expr.vtype)
        elif isinstance(stmt, A.SIf):
            self._exec_if(stmt, state)
        elif isinstance(stmt, A.SWhile):
            self._exec_while(stmt, state)
        elif isinstance(stmt, A.SAssert):
            self._exec_assert(stmt, state)
        elif isinstance(stmt, A.SAssume):
            state.assumptions.append(self.tr(stmt.expr, state.env,
                                             spec_mode=True))
        elif isinstance(stmt, A.SCall):
            self._exec_call(stmt, state)
        elif isinstance(stmt, A.SReturn):
            ret_term = None
            if stmt.expr is not None:
                ret_term = self.tr_checked(stmt.expr, state)
            self._check_ensures(state, ret_term)
            state.returned = True
        else:
            raise VcError(f"unknown statement {stmt!r}")

    def _exec_if(self, stmt: A.SIf, state: _State) -> None:
        cond = self.tr_checked(stmt.cond, state)
        base_len = len(state.assumptions)
        then_state = state.fork()
        then_state.assumptions.append(cond)
        self.exec_block(stmt.then, then_state)
        else_state = state.fork()
        else_state.assumptions.append(T.Not(cond))
        self.exec_block(stmt.els, else_state)

        if then_state.returned and else_state.returned:
            state.returned = True
            return
        if then_state.returned:
            state.env = else_state.env
            state.assumptions = else_state.assumptions
            return
        if else_state.returned:
            state.env = then_state.env
            state.assumptions = then_state.assumptions
            return
        # Merge: ITE on differing variables; guard branch assumptions.
        merged_env: dict[str, T.Term] = {}
        for name in set(then_state.env) | set(else_state.env):
            tv = then_state.env.get(name)
            ev = else_state.env.get(name)
            if tv is None or ev is None:
                merged_env[name] = tv if ev is None else ev
            elif tv is ev:
                merged_env[name] = tv
            else:
                merged_env[name] = T.Ite(cond, tv, ev)
        merged_assumptions = state.assumptions[:base_len]
        for extra in then_state.assumptions[base_len + 1:]:
            merged_assumptions.append(T.Implies(cond, extra))
        for extra in else_state.assumptions[base_len + 1:]:
            merged_assumptions.append(T.Implies(T.Not(cond), extra))
        state.env = merged_env
        state.assumptions = merged_assumptions

    def _assigned_names(self, stmts: Sequence[A.Stmt]) -> set[str]:
        out: set[str] = set()
        for stmt in stmts:
            if isinstance(stmt, (A.SLet, A.SAssign)):
                out.add(stmt.name)
            elif isinstance(stmt, A.SIf):
                out |= self._assigned_names(stmt.then)
                out |= self._assigned_names(stmt.els)
            elif isinstance(stmt, A.SWhile):
                out |= self._assigned_names(stmt.body)
            elif isinstance(stmt, A.SCall):
                out.update(stmt.binds)
                out.update(stmt.mut_args)
        return out

    def _havoc(self, state: _State, names: set[str]) -> None:
        for name in names:
            if name not in state.env:
                continue
            old = state.env[name]
            fresh = T.Var(self.gen.fresh(f"havoc!{name}"), old.sort)
            state.env[name] = fresh
            vtype = self._var_type(name)
            if vtype is not None:
                rng = self.encoder.range_assumption(vtype, fresh)
                if rng is not None:
                    state.assumptions.append(rng)

    def assign_var(self, state: _State, name: str, term: T.Term,
                   vtype: VT.VType) -> None:
        """Bind a local/parameter to a new value (hook for heap baselines)."""
        state.env[name] = term
        self._local_types.setdefault(name, vtype)

    def _var_type(self, name: str) -> Optional[VT.VType]:
        for p in self.fn.params:
            if p.name == name:
                return p.vtype
        return self._local_types.get(name)

    def _exec_while(self, stmt: A.SWhile, state: _State) -> None:
        # 1. Invariants hold on entry.
        for idx, inv in enumerate(stmt.invariants):
            self._oblige(state, self.tr(inv, state.env, spec_mode=True),
                         f"loop invariant #{idx} on entry", "invariant")
        modified = self._assigned_names(stmt.body)
        # 2. Body preserves invariants (arbitrary iteration).
        body_state = state.fork()
        self._havoc(body_state, modified)
        for inv in stmt.invariants:
            body_state.assumptions.append(
                self.tr(inv, body_state.env, spec_mode=True))
        cond = self.tr_checked(stmt.cond, body_state)
        body_state.assumptions.append(cond)
        dec0 = None
        if stmt.decreases is not None:
            dec0 = self.tr(stmt.decreases, body_state.env, spec_mode=True)
            self._oblige(body_state, T.Ge(dec0, T.IntVal(0)),
                         "loop decreases is non-negative", "termination")
        self.exec_block(stmt.body, body_state)
        if not body_state.returned:
            for idx, inv in enumerate(stmt.invariants):
                self._oblige(body_state,
                             self.tr(inv, body_state.env, spec_mode=True),
                             f"loop invariant #{idx} preserved", "invariant")
            if dec0 is not None:
                dec1 = self.tr(stmt.decreases, body_state.env, spec_mode=True)
                self._oblige(body_state, T.Lt(dec1, dec0),
                             "loop decreases strictly", "termination")
        # 3. Continue after the loop: havoc again, assume inv + !cond.
        self._havoc(state, modified)
        for inv in stmt.invariants:
            state.assumptions.append(self.tr(inv, state.env, spec_mode=True))
        exit_cond = self.tr_checked(stmt.cond, state)
        state.assumptions.append(T.Not(exit_cond))

    def _exec_assert(self, stmt: A.SAssert, state: _State) -> None:
        label = stmt.label or "assert"
        if stmt.by is None:
            goal = self.tr(stmt.expr, state.env, spec_mode=True)
            self._oblige(state, goal, label, "assert")
            state.assumptions.append(goal)
            return
        # §3.3 idiom strategies: isolated queries.
        if stmt.by == A.BY_BIT_VECTOR:
            ok = self._check_bit_vector(stmt.expr, state)
            self._oblige_direct(ok, f"{label} by(bit_vector)", "assert")
        elif stmt.by == A.BY_NONLINEAR:
            premises = [self.tr(p, state.env, spec_mode=True)
                        for p in stmt.by_premises]
            for i, p in enumerate(stmt.by_premises):
                self._oblige(state, self.tr(p, state.env, spec_mode=True),
                             f"{label} by(nonlinear_arith) premise #{i}",
                             "assert")
            goal = self.tr(stmt.expr, state.env, spec_mode=True)
            ok = self.gen._idiom_cached(
                A.BY_NONLINEAR, premises + [goal],
                lambda: prove_nonlinear(premises, goal))
            self._oblige_direct(ok, f"{label} by(nonlinear_arith)", "assert")
        elif stmt.by == A.BY_INTEGER_RING:
            premises = [self.tr(p, state.env, spec_mode=True)
                        for p in stmt.by_premises]
            for i, p in enumerate(stmt.by_premises):
                self._oblige(state, self.tr(p, state.env, spec_mode=True),
                             f"{label} by(integer_ring) premise #{i}",
                             "assert")
            goal = self.tr(stmt.expr, state.env, spec_mode=True)
            try:
                ok = self.gen._idiom_cached(
                    A.BY_INTEGER_RING, premises + [goal],
                    lambda: prove_ring(premises, goal))
            except RingError as err:
                raise VcError(f"{self.fn.name}: {label}: {err}") from err
            self._oblige_direct(ok, f"{label} by(integer_ring)", "assert")
        elif stmt.by == A.BY_COMPUTE:
            goal = self.tr(stmt.expr, state.env, spec_mode=True)
            try:
                ok, residual = prove_by_compute(goal, self._get_compute_env())
            except OutOfFuel:
                ok, residual = False, goal
            if ok:
                self._oblige_direct(True, f"{label} by(compute)", "assert")
            else:
                # Residual goes to the SMT path (paper: "sends any
                # remainder to SMT").
                self._oblige(state, residual if residual is not None else goal,
                             f"{label} by(compute) residual", "assert")
        else:
            raise VcError(f"unknown proof strategy by({stmt.by})")
        state.assumptions.append(self.tr(stmt.expr, state.env,
                                         spec_mode=True))

    def _get_compute_env(self) -> ComputeEnv:
        if self._compute_env is None:
            env = ComputeEnv()
            for spec in self.module.all_functions().values():
                if spec.is_spec and spec.body is not None:
                    decl = self.spec_decl(spec)
                    bound = [T.Var(f"cmp!{spec.name}!{p.name}",
                                   self.encoder.sort_of(p.vtype))
                             for p in spec.params]
                    body_env = {p.name: b
                                for p, b in zip(spec.params, bound)}
                    env.define(decl, bound,
                               self.tr(spec.body, body_env, spec_mode=True))
            self._compute_env = env
        return self._compute_env

    def _check_bit_vector(self, expr: A.Expr, state: _State) -> bool:
        """Translate the assertion to pure BV terms and refute its negation."""
        translator = _BvTranslator(self)
        formula = translator.tr(expr, state.env)
        return self.gen._idiom_cached(
            A.BY_BIT_VECTOR, [formula],
            lambda: bv_check_sat(T.Not(formula)) is False)

    def _exec_call(self, stmt: A.SCall, state: _State) -> None:
        callee = self.module.lookup(stmt.fn_name)
        if callee.is_spec:
            raise VcError(f"cannot exec-call spec fn {stmt.fn_name}")
        args = [self.tr_checked(a, state) for a in stmt.args]
        call_env = {p.name: a for p, a in zip(callee.params, args)}
        # Check preconditions.
        for idx, req in enumerate(callee.requires):
            self._oblige(state, self.tr(req, call_env, spec_mode=True),
                         f"precondition #{idx} of {callee.name}", "requires")
        # Havoc &mut args and bind results.
        old_call_env = dict(call_env)
        post_env = dict(call_env)
        for p in callee.params:
            if p.mutable:
                fresh = T.Var(self.gen.fresh(f"{callee.name}!{p.name}!out"),
                              self.encoder.sort_of(p.vtype))
                post_env[p.name] = fresh
                rng = self.encoder.range_assumption(p.vtype, fresh)
                if rng is not None:
                    state.assumptions.append(rng)
        ret_term = None
        if callee.ret is not None:
            ret_name, ret_type = callee.ret
            ret_term = T.Var(self.gen.fresh(f"{callee.name}!ret"),
                             self.encoder.sort_of(ret_type))
            post_env[ret_name] = ret_term
            rng = self.encoder.range_assumption(ret_type, ret_term)
            if rng is not None:
                state.assumptions.append(rng)
        # Assume postconditions.
        for ens in callee.ensures:
            state.assumptions.append(
                self.tr(ens, post_env, spec_mode=True,
                        old_env=old_call_env))
        # Write back &mut args and result bindings into caller state.
        mut_params = [p for p in callee.params if p.mutable]
        for caller_name, p in zip(stmt.mut_args, mut_params):
            self.assign_var(state, caller_name, post_env[p.name], p.vtype)
        if stmt.binds:
            if ret_term is None:
                raise VcError(f"{callee.name} returns nothing to bind")
            self.assign_var(state, stmt.binds[0], ret_term, callee.ret[1])

    def _check_ensures(self, state: _State, ret_term: Optional[T.Term]
                       ) -> None:
        env = dict(state.env)
        if self.fn.ret is not None and ret_term is not None:
            env[self.fn.ret[0]] = ret_term
        # Ensures clauses belong to the signature, not the return site.
        saved_span = self._cur_span
        for idx, ens in enumerate(self.fn.ensures):
            self._cur_span = ens.span if ens.span is not None \
                else self.fn.span
            goal = self.tr(ens, env, spec_mode=True)
            self._oblige(state, goal, f"ensures #{idx}", "ensures")
        self._cur_span = saved_span

    # ------------------------------------------------------- expressions

    def tr_checked(self, expr: A.Expr, state: _State) -> T.Term:
        """Translate an exec-mode expression, emitting side obligations."""
        sink: list[tuple[T.Term, str, str]] = []
        term = self.tr(expr, state.env, spec_mode=False, side_sink=sink)
        for goal, label, kind in sink:
            self._oblige(state, goal, label, kind)
            state.assumptions.append(goal)
        return term

    TRANSLATOR_CLS: type  # set below; heap baselines substitute their own

    def tr(self, expr: A.Expr, env: dict, spec_mode: bool,
           old_env: Optional[dict] = None,
           side_sink: Optional[list] = None) -> T.Term:
        return self.TRANSLATOR_CLS(self, env,
                                   old_env if old_env is not None
                                   else self.old_env,
                                   spec_mode, side_sink).tr(expr)


# ---------------------------------------------------------------------------
# Expression translation
# ---------------------------------------------------------------------------

_ARITH = {"+": T.Add, "-": T.Sub, "*": T.Mul}
_CMP = {"<": T.Lt, "<=": T.Le, ">": T.Gt, ">=": T.Ge}


class _ExprTranslator:
    def __init__(self, ctx: _FnCtx, env: dict, old_env: dict,
                 spec_mode: bool, side_sink: Optional[list]):
        self.ctx = ctx
        self.env = env
        self.old_env = old_env
        self.spec_mode = spec_mode
        self.side_sink = side_sink
        self.encoder = ctx.encoder

    def _side(self, goal: T.Term, label: str, kind: str) -> None:
        if not self.spec_mode and self.side_sink is not None:
            self.side_sink.append((goal, label, kind))

    def tr(self, e: A.Expr) -> T.Term:
        method = getattr(self, f"_tr_{type(e).__name__}", None)
        if method is None:
            raise EncodeError(f"cannot translate {type(e).__name__}")
        return method(e)

    # -- leaves --------------------------------------------------------------

    def _tr_Lit(self, e: A.Lit) -> T.Term:
        if isinstance(e.vtype, VT.BoolType):
            return T.BoolVal(bool(e.value))
        return T.IntVal(int(e.value))

    def _tr_VarE(self, e: A.VarE) -> T.Term:
        term = self.env.get(e.name)
        if term is None:
            raise EncodeError(f"unbound variable {e.name!r}")
        return term

    def _tr_Old(self, e: A.Old) -> T.Term:
        term = self.old_env.get(e.name)
        if term is None:
            raise EncodeError(f"old({e.name}): not a parameter")
        return term

    # -- operators -------------------------------------------------------------

    def _guarded_rhs(self, guard: T.Term, rhs: A.Expr) -> T.Term:
        """Translate rhs with its side conditions guarded (short-circuit)."""
        if self.spec_mode or self.side_sink is None:
            return self.tr(rhs)
        outer = self.side_sink
        inner: list = []
        self.side_sink = inner
        try:
            term = self.tr(rhs)
        finally:
            self.side_sink = outer
        for goal, label, kind in inner:
            outer.append((T.Implies(guard, goal), label, kind))
        return term

    def _tr_BinOp(self, e: A.BinOp) -> T.Term:
        op = e.op
        if op in ("&&",):
            lhs = self.tr(e.lhs)
            return T.And(lhs, self._guarded_rhs(lhs, e.rhs))
        if op in ("||",):
            lhs = self.tr(e.lhs)
            return T.Or(lhs, self._guarded_rhs(T.Not(lhs), e.rhs))
        if op == "==>":
            lhs = self.tr(e.lhs)
            return T.Implies(lhs, self._guarded_rhs(lhs, e.rhs))
        if op == "<==>":
            return T.Eq(self.tr(e.lhs), self.tr(e.rhs))
        lhs = self.tr(e.lhs)
        rhs = self.tr(e.rhs)
        if op == "==":
            return T.Eq(lhs, rhs)
        if op == "!=":
            return T.Ne(lhs, rhs)
        if op == "=~=":
            return self._ext_equal(e, lhs, rhs)
        if op in _CMP:
            return _CMP[op](lhs, rhs)
        if op in _ARITH:
            out = _ARITH[op](lhs, rhs)
            self._overflow_check(e, out)
            return out
        if op == "/":
            self._side(T.Ne(rhs, T.IntVal(0)),
                       "division by zero", "overflow")
            return T.Div(lhs, rhs)
        if op == "%":
            self._side(T.Ne(rhs, T.IntVal(0)),
                       "modulo by zero", "overflow")
            return T.Mod(lhs, rhs)
        if op in ("&", "|", "^", "<<", ">>"):
            bits = (e.lhs.vtype.bits
                    if isinstance(e.lhs.vtype, VT.BoundedIntType) else 64)
            decl = self.encoder.bitop_fn(op, bits)
            return decl(lhs, rhs)
        raise EncodeError(f"unknown operator {op}")

    def _overflow_check(self, e: A.BinOp, out: T.Term) -> None:
        if (self.spec_mode or not self.ctx.gen.config.check_overflow
                or not isinstance(e.vtype, VT.BoundedIntType)):
            if (not self.spec_mode and isinstance(e.vtype, VT.NatType)
                    and e.op == "-"):
                self._side(T.Ge(out, T.IntVal(0)),
                           "nat subtraction underflow", "overflow")
            return
        rng = self.encoder.range_assumption(e.vtype, out)
        if rng is not None:
            self._side(rng, f"arithmetic overflow in {e.op}", "overflow")

    def _ext_equal(self, e: A.BinOp, lhs: T.Term, rhs: T.Term) -> T.Term:
        vt = e.lhs.vtype
        if isinstance(vt, VT.SeqType):
            return self.encoder.seq_fns(vt)["ext"](lhs, rhs)
        # For other types =~= is plain equality.
        return T.Eq(lhs, rhs)

    def _tr_UnOp(self, e: A.UnOp) -> T.Term:
        if e.op == "!":
            return T.Not(self.tr(e.operand))
        if e.op == "-":
            return T.Neg(self.tr(e.operand))
        raise EncodeError(f"unknown unary {e.op}")

    def _tr_IteE(self, e: A.IteE) -> T.Term:
        return T.Ite(self.tr(e.cond), self.tr(e.then), self.tr(e.els))

    def _tr_LetE(self, e: A.LetE) -> T.Term:
        value = self.tr(e.value)
        saved = self.env.get(e.name)
        self.env[e.name] = value
        try:
            return self.tr(e.body)
        finally:
            if saved is None:
                del self.env[e.name]
            else:
                self.env[e.name] = saved

    # -- calls -----------------------------------------------------------------

    def _tr_Call(self, e: A.Call) -> T.Term:
        callee = self.ctx.module.lookup(e.fn_name)
        if not callee.is_spec:
            raise EncodeError(
                f"exec fn {e.fn_name} cannot be called in an expression; "
                f"use SCall")
        decl = self.ctx.spec_decl(callee)
        return decl(*[self.tr(a) for a in e.args])

    # -- structs / enums ----------------------------------------------------------

    def _tr_FieldGet(self, e: A.FieldGet) -> T.Term:
        fns = self.encoder.struct_fns(e.base.vtype)
        return fns[f"sel_{e.fieldname}"](self.tr(e.base))

    def _tr_StructLit(self, e: A.StructLit) -> T.Term:
        fns = self.encoder.struct_fns(e.vtype)
        args = [self.tr(e.fields[name]) for name in e.vtype.fields]
        return fns["mk"](*args)

    def _tr_StructUpdate(self, e: A.StructUpdate) -> T.Term:
        fns = self.encoder.struct_fns(e.vtype)
        base = self.tr(e.base)
        args = []
        for name in e.vtype.fields:
            if name in e.updates:
                args.append(self.tr(e.updates[name]))
            else:
                args.append(fns[f"sel_{name}"](base))
        return fns["mk"](*args)

    def _tr_EnumLit(self, e: A.EnumLit) -> T.Term:
        fns = self.encoder.enum_fns(e.vtype)
        fields = e.vtype.variant_fields(e.variant)
        args = [self.tr(e.fields[name]) for name in fields]
        return fns[f"mk_{e.variant}"](*args)

    def _tr_IsVariant(self, e: A.IsVariant) -> T.Term:
        fns = self.encoder.enum_fns(e.base.vtype)
        tag = self.encoder.variant_tag(e.base.vtype, e.variant)
        return T.Eq(fns["tag"](self.tr(e.base)), T.IntVal(tag))

    def _tr_VariantGet(self, e: A.VariantGet) -> T.Term:
        fns = self.encoder.enum_fns(e.base.vtype)
        return fns[f"sel_{e.variant}_{e.fieldname}"](self.tr(e.base))

    # -- Seq ------------------------------------------------------------------------

    def _tr_SeqLit(self, e: A.SeqLit) -> T.Term:
        fns = self.encoder.seq_fns(e.vtype)
        out = fns["empty"]()
        for item in e.items:
            out = fns["concat"](out, fns["singleton"](self.tr(item)))
        return out

    def _tr_SeqLen(self, e: A.SeqLen) -> T.Term:
        fns = self.encoder.seq_fns(e.seq.vtype)
        return fns["len"](self.tr(e.seq))

    def _tr_SeqIndex(self, e: A.SeqIndex) -> T.Term:
        fns = self.encoder.seq_fns(e.seq.vtype)
        seq = self.tr(e.seq)
        idx = self.tr(e.idx)
        self._side(T.And(T.Le(T.IntVal(0), idx),
                         T.Lt(idx, fns["len"](seq))),
                   "sequence index in bounds", "bounds")
        return fns["index"](seq, idx)

    def _tr_SeqUpdate(self, e: A.SeqUpdate) -> T.Term:
        fns = self.encoder.seq_fns(e.seq.vtype)
        seq = self.tr(e.seq)
        idx = self.tr(e.idx)
        self._side(T.And(T.Le(T.IntVal(0), idx),
                         T.Lt(idx, fns["len"](seq))),
                   "sequence update in bounds", "bounds")
        return fns["update"](seq, idx, self.tr(e.value))

    def _tr_SeqConcat(self, e: A.SeqConcat) -> T.Term:
        fns = self.encoder.seq_fns(e.vtype)
        return fns["concat"](self.tr(e.lhs), self.tr(e.rhs))

    def _tr_SeqSkip(self, e: A.SeqSkip) -> T.Term:
        fns = self.encoder.seq_fns(e.vtype)
        return fns["skip"](self.tr(e.seq), self.tr(e.n))

    def _tr_SeqTake(self, e: A.SeqTake) -> T.Term:
        fns = self.encoder.seq_fns(e.vtype)
        return fns["take"](self.tr(e.seq), self.tr(e.n))

    # -- Map ------------------------------------------------------------------------

    def _tr_MapEmpty(self, e: A.MapEmpty) -> T.Term:
        return self.encoder.map_fns(e.vtype)["empty"]()

    def _tr_MapHas(self, e: A.MapHas) -> T.Term:
        fns = self.encoder.map_fns(e.m.vtype)
        return fns["has"](self.tr(e.m), self.tr(e.key))

    def _tr_MapGet(self, e: A.MapGet) -> T.Term:
        fns = self.encoder.map_fns(e.m.vtype)
        m = self.tr(e.m)
        k = self.tr(e.key)
        self._side(fns["has"](m, k), "map key present", "bounds")
        return fns["get"](m, k)

    def _tr_MapInsert(self, e: A.MapInsert) -> T.Term:
        fns = self.encoder.map_fns(e.m.vtype)
        return fns["insert"](self.tr(e.m), self.tr(e.key), self.tr(e.value))

    def _tr_MapRemove(self, e: A.MapRemove) -> T.Term:
        fns = self.encoder.map_fns(e.m.vtype)
        return fns["remove"](self.tr(e.m), self.tr(e.key))

    # -- quantifiers -----------------------------------------------------------------

    def _quant(self, e, mk) -> T.Term:
        bound_terms = []
        saved: dict[str, Optional[T.Term]] = {}
        guards = []
        for name, vtype in e.bound:
            v = T.Var(f"q!{name}", self.encoder.sort_of(vtype))
            bound_terms.append(v)
            saved[name] = self.env.get(name)
            self.env[name] = v
            rng = self.encoder.range_assumption(vtype, v)
            if rng is not None:
                guards.append(rng)
        try:
            body = self.tr(e.body)
            triggers = None
            if e.triggers:
                triggers = [[self.tr(p) for p in grp] for grp in e.triggers]
        finally:
            for name, old in saved.items():
                if old is None:
                    self.env.pop(name, None)
                else:
                    self.env[name] = old
        if guards:
            guard = T.And(*guards)
            body = (T.Implies(guard, body) if mk is T.ForAll
                    else T.And(guard, body))
        return mk(bound_terms, body, triggers)

    def _tr_ForAllE(self, e: A.ForAllE) -> T.Term:
        return self._quant(e, T.ForAll)

    def _tr_ExistsE(self, e: A.ExistsE) -> T.Term:
        return self._quant(e, T.Exists)


# ---------------------------------------------------------------------------
# by(bit_vector) translation
# ---------------------------------------------------------------------------

class _BvTranslator:
    """Translate a (bounded-int) assertion into pure bit-vector terms.

    Inside the assertion, every u{N} variable becomes a BV(N) variable —
    the paper's "inside the assertion, x is a bit vector" semantics.
    """

    WIDTH = 64  # bit_vector asserts run at machine-word width

    def __init__(self, ctx: _FnCtx):
        self.ctx = ctx
        self._vars: dict[T.Term, T.Term] = {}
        self._scopes = 0

    def tr(self, e: A.Expr, env: dict) -> T.Term:
        return self._tr(e, env)

    def _tr(self, e: A.Expr, env: dict) -> T.Term:
        if isinstance(e, A.Lit):
            if isinstance(e.vtype, VT.BoolType):
                return T.BoolVal(bool(e.value))
            return T.BVVal(int(e.value), self.WIDTH)
        if isinstance(e, A.VarE):
            base = env.get(e.name)
            if base is None:
                raise EncodeError(f"unbound {e.name} in bit_vector assert")
            bv_var = self._vars.get(base)
            if bv_var is None:
                bv_var = T.Var(f"bv!{e.name}", bv_sort(self.WIDTH))
                self._vars[base] = bv_var
            return bv_var
        if isinstance(e, A.BinOp):
            if e.op in ("&&", "||", "==>"):
                a, b = self._tr(e.lhs, env), self._tr(e.rhs, env)
                return {"&&": T.And, "||": T.Or,
                        "==>": T.Implies}[e.op](a, b)
            a, b = self._tr(e.lhs, env), self._tr(e.rhs, env)
            table = {
                "&": T.BvAnd, "|": T.BvOr, "^": T.BvXor,
                "+": T.BvAdd, "-": T.BvSub, "*": T.BvMul,
                "/": T.BvUDiv, "%": T.BvURem,
                "<<": T.BvShl, ">>": T.BvLshr,
                "==": T.Eq, "!=": T.Ne,
                "<=": T.BvULe, "<": T.BvULt,
            }
            if e.op in (">=", ">"):
                return (T.BvULe(b, a) if e.op == ">=" else T.BvULt(b, a))
            if e.op not in table:
                raise EncodeError(f"bit_vector mode: operator {e.op}")
            return table[e.op](a, b)
        if isinstance(e, A.UnOp) and e.op == "!":
            return T.Not(self._tr(e.operand, env))
        if isinstance(e, A.IteE):
            return T.Ite(self._tr(e.cond, env), self._tr(e.then, env),
                         self._tr(e.els, env))
        if isinstance(e, A.ForAllE):
            # Bound BV variables: scope them through env with fresh markers.
            saved = {}
            self._scopes += 1
            for name, _vtype in e.bound:
                # Deterministic scope counter (not id()): the translated
                # formula's text is the idiom cache key, so names must be
                # reproducible across runs and processes.
                marker = T.Var(f"bvscope!{name}!{self._scopes}",
                               bv_sort(self.WIDTH))
                saved[name] = env.get(name)
                env[name] = marker
            try:
                body = self._tr(e.body, env)
            finally:
                for name, old in saved.items():
                    if old is None:
                        env.pop(name, None)
                    else:
                        env[name] = old
            # A BV-sorted universal over a finite domain: leave the bound
            # variables as free BV vars — refuting the negation then checks
            # all values, which is exactly ∀-validity.
            return body
        raise EncodeError(
            f"bit_vector mode cannot translate {type(e).__name__}")


# ---------------------------------------------------------------------------
# AST walking helpers
# ---------------------------------------------------------------------------

def _walk_expr(e: A.Expr):
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        for attr in ("lhs", "rhs", "operand", "cond", "then", "els", "base",
                     "seq", "idx", "value", "n", "m", "key", "body"):
            child = getattr(cur, attr, None)
            if isinstance(child, A.Expr):
                stack.append(child)
        for attr in ("args", "items"):
            children = getattr(cur, attr, None)
            if children:
                stack.extend(c for c in children if isinstance(c, A.Expr))
        fields = getattr(cur, "fields", None)
        if isinstance(fields, dict):
            stack.extend(v for v in fields.values() if isinstance(v, A.Expr))
        updates = getattr(cur, "updates", None)
        if isinstance(updates, dict):
            stack.extend(v for v in updates.values() if isinstance(v, A.Expr))


def _stmt_exprs(stmt: A.Stmt):
    for attr in ("expr", "cond", "decreases"):
        e = getattr(stmt, attr, None)
        if isinstance(e, A.Expr):
            yield e
    for attr in ("invariants", "args", "by_premises"):
        es = getattr(stmt, attr, None)
        if es:
            yield from (e for e in es if isinstance(e, A.Expr))


# Default wiring; baseline pipelines substitute subclasses.
VcGen.CTX_CLS = _FnCtx
_FnCtx.TRANSLATOR_CLS = _ExprTranslator
