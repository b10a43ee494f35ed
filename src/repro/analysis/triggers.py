"""Matching-loop detector: static trigger analysis (§3.1).

Conservative trigger selection is the paper's answer to Dafny-style
instantiation blowup, but no selection policy can save a quantifier
whose *body* creates terms that re-fire its own (or another axiom's)
trigger with a strictly larger instantiation — the classic matching
loop, which shows up at solve time as an E-matching hang.  This pass
finds the loops before any solver exists:

1. every quantified spec expression in the module (requires/ensures,
   asserts, invariants, spec bodies) is translated to solver terms and
   run through the *same* :func:`repro.smt.quant.select_triggers` the
   solver will use, so the analysis sees exactly the triggers the
   E-matcher will;
2. a symbol graph is built: an edge ``f -> g`` means a quantifier
   triggered on an ``f``-application creates a *new* ``g``-application
   mentioning its bound variables.  The edge is **growing** when the
   new term nests a bound variable under a further uninterpreted
   application — matching it binds a strictly larger instantiation
   term (``f(x)`` creating ``f(g(x))`` is the one-axiom case);
3. a cycle through at least one growing edge is a matching loop:
   error.  Silent trigger-selection degradations (broad policy falling
   back to conservative, brittle multi-pattern groups — the same
   events the solver now counts in ``Stats.trigger_fallbacks``) and
   quantifiers with no inferable trigger at all are warnings.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from ..smt import terms as T
from ..smt.quant import TriggerError, select_triggers
from ..vc import ast as A
from ..vc.encode import EncodeError, Encoder
from . import ERROR, WARNING, AnalysisContext, AnalysisPass, Finding, \
    spec_exprs_of, walk_expr
from .graph import recursive_sccs


def _spec_positions(fn: A.Function):
    """All spec-mode expressions of a function, including a spec body."""
    yield from spec_exprs_of(fn)
    if fn.is_spec and isinstance(fn.body, A.Expr):
        yield fn.body, "spec body"


class _Translator:
    """Translate spec expressions to solver terms with zero solver work.

    Reuses the production expression translator (``VcGen.CTX_CLS``), so
    quantifier guards/triggers come out exactly as the encoder would
    emit them; free program variables are bound to fresh constants of
    the right sort on demand (we analyze expressions in isolation, not
    along a symbolic execution path).
    """

    def __init__(self, ctx: AnalysisContext):
        from ..vc.wp import VcGen
        self.gen = VcGen(ctx.module, ctx.vc_config)
        self.encoder = Encoder()
        self._fnctx = {}

    def translate(self, fn: A.Function, expr: A.Expr) -> Optional[T.Term]:
        from ..vc.wp import VcGen
        fnctx = self._fnctx.get(fn.name)
        if fnctx is None:
            fnctx = VcGen.CTX_CLS(self.gen, fn, self.encoder)
            self._fnctx[fn.name] = fnctx
        env: dict[str, T.Term] = {}
        old_env: dict[str, T.Term] = {}
        try:
            for sub in walk_expr(expr):
                if isinstance(sub, A.VarE) and sub.name not in env:
                    env[sub.name] = T.Var(
                        f"an!{sub.name}", self.encoder.sort_of(sub.vtype))
                elif isinstance(sub, A.Old) and sub.name not in old_env:
                    old_env[sub.name] = T.Var(
                        f"an!old!{sub.name}",
                        self.encoder.sort_of(sub.vtype))
            return fnctx.tr(expr, env, spec_mode=True, old_env=old_env)
        except (EncodeError, KeyError, TypeError):
            # Unresolvable reference or unencodable construct: planning
            # will produce the real (dynamic) error with full context.
            return None


class MatchingLoopPass(AnalysisPass):
    """Detect matching loops and silent trigger-selection fallbacks."""

    id = "matching-loop"

    def run(self, ctx: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        translator = _Translator(ctx)
        policy = ctx.vc_config.trigger_policy
        graph = nx.DiGraph()
        # decl -> where-strings of the quantifiers contributing edges
        sources: dict[T.FuncDecl, set[str]] = {}
        for name, fn in ctx.module.functions.items():
            where = ctx.qualify(name)
            seen_quants: set[T.Term] = set()
            for expr, what in _spec_positions(fn):
                term = translator.translate(fn, expr)
                if term is None:
                    continue
                for quant in term.subterms():
                    if quant.kind != T.FORALL or quant in seen_quants:
                        continue
                    seen_quants.add(quant)
                    self._analyze_quant(quant, policy, where, what,
                                        fn, graph, sources, findings)
        findings.extend(self._loop_findings(ctx, graph, sources))
        return findings

    # ------------------------------------------------------- per-quant

    def _analyze_quant(self, quant, policy, where, what, fn, graph,
                       sources, findings) -> None:
        fallbacks: list[str] = []
        try:
            groups = select_triggers(quant, policy,
                                     on_fallback=fallbacks.append)
        except TriggerError as err:
            findings.append(Finding(
                self.id, WARNING, where,
                f"quantifier in {what} has no inferable trigger "
                f"({err}); it can only be instantiated by MBQI",
                span=fn.span,
                suggestion="supply an explicit trigger group or "
                           "restructure the body around an "
                           "uninterpreted application"))
            return
        for kind in fallbacks:
            findings.append(Finding(
                self.id, WARNING, where,
                f"trigger selection for a quantifier in {what} "
                f"silently degraded ({kind}); instantiation behavior "
                f"may be brittle", span=fn.span,
                suggestion="supply an explicit trigger group "
                           "(triggers=[[...]])"))
        # Edges go into the graph in subterm and trigger order (never set
        # order, which follows identity hashes): node order decides the
        # order the loop check visits components in.
        bound = frozenset(quant.bound_vars)
        trigger_subterms: set[T.Term] = set()
        trigger_roots: dict[T.FuncDecl, None] = {}
        for group in groups:
            for pattern in group:
                trigger_subterms.update(pattern.subterms())
                if pattern.kind == T.APP:
                    trigger_roots[pattern.payload] = None
        if not trigger_roots:
            return
        for s in quant.body.subterms():
            if (s.kind != T.APP or not (s.free_vars() & bound)
                    or s in trigger_subterms):
                continue
            # A new term the instantiation will create.  It feeds a
            # loop when a bound variable sits under a *nested*
            # uninterpreted application: matching `s` against some
            # trigger then binds a strictly larger term.
            growing = any(sub is not s and sub.kind == T.APP
                          and (sub.free_vars() & bound)
                          for sub in s.subterms())
            for root in trigger_roots:
                if graph.has_edge(root, s.payload):
                    if growing:
                        graph[root][s.payload]["growing"] = True
                else:
                    graph.add_edge(root, s.payload, growing=growing)
                sources.setdefault(root, set()).add(where)
                sources.setdefault(s.payload, set()).add(where)

    # ------------------------------------------------------ loop check

    def _loop_findings(self, ctx, graph, sources) -> list[Finding]:
        findings: list[Finding] = []
        for scc in recursive_sccs(graph):
            inner = [(u, v) for u, v in graph.edges(scc)
                     if u in scc and v in scc]
            if not any(graph[u][v]["growing"] for u, v in inner):
                continue  # bounded back-and-forth, not a loop
            symbols = sorted(d.name for d in scc)
            involved = sorted(set().union(
                *(sources.get(d, set()) for d in scc)))
            findings.append(Finding(
                self.id, ERROR, ctx.module.name,
                f"potential matching loop through "
                f"{' -> '.join(symbols + symbols[:1])}: instantiating "
                f"these quantifiers creates ever-larger terms that "
                f"re-fire their own triggers (from: "
                f"{', '.join(involved)})",
                suggestion="add explicit triggers that do not match "
                           "the terms the body creates, or bound the "
                           "quantifier with a guard predicate"))
        return findings
