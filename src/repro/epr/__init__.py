"""`#[epr_mode]` — selective use of EPR for full proof automation (§3.2).

A module marked EPR gets three things, mirroring the paper:

1. **Well-formedness checking** (:func:`check_epr_module`): the module's
   vocabulary must stay inside EPR — no arithmetic (integers are abstracted
   as totally ordered uninterpreted sorts), and the quantifier-alternation /
   function graph over sorts must be acyclic (Padon et al.'s criterion,
   checked with networkx).
2. **A complete decision procedure**: obligations are dispatched with MBQI
   (complete instantiation), so inductive invariants check *fully
   automatically* — no manual proof.
3. **Sound composition**: results are ordinary postconditions, so
   default-mode modules can consume them; the abstraction obligations
   connecting implementation to EPR model are ordinary default-mode proofs.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from ..analysis.graph import find_cycle
from ..smt.solver import SolverConfig
from ..vc import ast as A
from ..vc import types as VT
from ..vc.errors import ModuleResult
from ..vc.wp import VcConfig, VcGen

_ARITH_OPS = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
              "<", "<=", ">", ">="}


class EprViolation:
    """One reason a module is not in EPR."""

    def __init__(self, where: str, reason: str, span=None):
        self.where = where
        self.reason = reason
        self.span = span  # Optional[repro.vc.ast.Span]

    def to_finding(self, severity: str = "error"):
        """Adapt to a static-analysis :class:`repro.analysis.Finding`."""
        from ..analysis import Finding
        return Finding("epr", severity, self.where, self.reason,
                       span=self.span,
                       suggestion="rework the spec to stay inside EPR, or "
                                  "drop epr_mode and prove it manually")

    def __repr__(self) -> str:
        return f"<EprViolation {self.where}: {self.reason}>"


class EprError(Exception):
    def __init__(self, violations: list[EprViolation]):
        lines = [f"  {v.where}: {v.reason}" for v in violations]
        super().__init__("module is not in EPR:\n" + "\n".join(lines))
        self.violations = violations


def _is_epr_type(t: VT.VType) -> bool:
    if isinstance(t, VT.BoolType):
        return True
    if isinstance(t, (VT.StructType, VT.EnumType)):
        return True  # uninterpreted carriers
    return False


def _expr_violations(e: A.Expr, where: str, out: list[EprViolation],
                     span=None) -> None:
    for sub in A.walk_expr(e):
        if isinstance(sub, A.BinOp) and sub.op in _ARITH_OPS:
            out.append(EprViolation(
                where, f"arithmetic operator {sub.op!r} is outside EPR "
                       f"(abstract numbers as a totally ordered sort)", span))
        if isinstance(sub, A.Lit) and not isinstance(sub.vtype, VT.BoolType):
            out.append(EprViolation(
                where, "integer literal is outside EPR", span))
        if isinstance(sub, (A.SeqLen, A.SeqIndex, A.SeqUpdate, A.SeqConcat,
                            A.SeqSkip, A.SeqTake, A.SeqLit)):
            out.append(EprViolation(
                where, "Seq operations require integer indices, outside EPR",
                span))


def _quantifier_edges(e: A.Expr, positive: bool, graph: nx.DiGraph,
                      univ_in_scope: tuple) -> None:
    """Add quantifier-alternation edges: ∀x..∃y ⇒ sort(x) → sort(y)."""
    if isinstance(e, A.UnOp) and e.op == "!":
        _quantifier_edges(e.operand, not positive, graph, univ_in_scope)
        return
    if isinstance(e, A.BinOp):
        if e.op == "==>":
            _quantifier_edges(e.lhs, not positive, graph, univ_in_scope)
            _quantifier_edges(e.rhs, positive, graph, univ_in_scope)
            return
        if e.op in ("&&", "||"):
            _quantifier_edges(e.lhs, positive, graph, univ_in_scope)
            _quantifier_edges(e.rhs, positive, graph, univ_in_scope)
            return
        if e.op == "<==>":
            for pol in (positive, not positive):
                _quantifier_edges(e.lhs, pol, graph, univ_in_scope)
                _quantifier_edges(e.rhs, pol, graph, univ_in_scope)
            return
    if isinstance(e, (A.ForAllE, A.ExistsE)):
        is_univ = isinstance(e, A.ForAllE) == positive
        if is_univ:
            scope = univ_in_scope + tuple(t for _, t in e.bound)
            _quantifier_edges(e.body, positive, graph, scope)
        else:
            for _, exist_t in e.bound:
                for univ_t in univ_in_scope:
                    graph.add_edge(univ_t.name, exist_t.name)
            _quantifier_edges(e.body, positive, graph, univ_in_scope)
        return
    # Atoms: our language nests quantifiers only through boolean structure.


def check_epr_module(mod: A.Module) -> list[EprViolation]:
    """All EPR violations of a module (empty list = well-formed)."""
    violations: list[EprViolation] = []
    graph = nx.DiGraph()
    for fn in mod.functions.values():
        where = f"{mod.name}.{fn.name}"
        for p in fn.params:
            if not _is_epr_type(p.vtype):
                violations.append(EprViolation(
                    where, f"parameter {p.name}: type {p.vtype.name} is not "
                           f"an uninterpreted EPR sort", fn.span))
        if fn.ret is not None and not _is_epr_type(fn.ret[1]):
            violations.append(EprViolation(
                where, f"return type {fn.ret[1].name} is not an EPR sort",
                fn.span))
        exprs = list(fn.requires) + list(fn.ensures)
        if isinstance(fn.body, A.Expr):
            exprs.append(fn.body)
        for e in exprs:
            _expr_violations(e, where, violations, fn.span)
            _quantifier_edges(e, True, graph, ())
        # Function edges: non-boolean spec functions map argument sorts to
        # the result sort; a sort cycle breaks decidability.
        if fn.is_spec and fn.ret is not None:
            ret_t = fn.ret[1]
            if not isinstance(ret_t, VT.BoolType):
                for p in fn.params:
                    if not isinstance(p.vtype, VT.BoolType):
                        graph.add_edge(p.vtype.name, ret_t.name)
    cycle = find_cycle(graph)
    if cycle is not None:
        path = " -> ".join(str(a) for a, _ in cycle) + f" -> {cycle[-1][1]}"
        violations.append(EprViolation(
            mod.name,
            f"quantifier-alternation/function graph has a cycle: {path}"))
    return violations


def epr_config() -> VcConfig:
    """Verifier configuration for EPR modules: MBQI on, generous budgets."""
    return VcConfig(mbqi=True,
                    solver_config=SolverConfig(mbqi=True, max_rounds=200,
                                               max_instantiations=60000,
                                               mbqi_max_universe=14))


def verify_epr_module(mod: A.Module,
                      config: Optional[VcConfig] = None) -> ModuleResult:
    """Check EPR well-formedness, then verify with complete instantiation.

    Raises :class:`EprError` if the module steps outside EPR — the paper's
    `#[epr_mode]` attribute check.
    """
    violations = check_epr_module(mod)
    if violations:
        raise EprError(violations)
    return VcGen(mod, config or epr_config()).verify_module()
