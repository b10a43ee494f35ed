"""Verification pipelines modeling the §4.1 comparison frameworks.

Each pipeline runs the *same* module AST through the same underlying
solver, differing exactly along the axes the paper identifies:

================= ========== ========== ========= ==========================
pipeline          encoding   triggers   pruning   extra behavior
================= ========== ========== ========= ==========================
verus             value      conserv.   yes       —
dafny             heap       broad      no        —
fstar (Low*)      heap       broad      no        fat Seq library context;
                                                  fuel retry: configs base,
                                                  2x, 4x instantiations
creusot           value      broad      no        prover portfolio: three
                                                  configs, quick to thorough
prusti            heap       broad      no        per-statement permission
                                                  re-checks; no cyclic refs
ivy               value      (MBQI)     yes       EPR only — rejects
                                                  anything else
================= ========== ========== ========= ==========================

A retry strategy is a list of solver configs (``VcGen.solver_configs``):
the scheduler tries each obligation under them in order and stops at the
first proof, so a failure pays for the whole list.  Pipelines with such a
list skip the static proving tier (``ABSINT_TRIAGE``) and the profile
race.

The wall-clock differences the millibenchmarks report therefore arise from
*structural* causes (frame axioms, instantiation blowup, extra obligations),
not from hard-coded slowdowns.
"""

from __future__ import annotations

import time
from typing import Optional

from ..epr import EprError, check_epr_module, verify_epr_module
from ..smt import terms as T
from ..smt.quant import BROAD, CONSERVATIVE
from ..smt.solver import SolverConfig
from ..smt.sorts import INT as SINT
from ..vc import ast as A
from ..vc import types as VT
from ..vc.encode import Encoder
from ..vc.errors import ModuleResult
from ..vc.wp import VcConfig, VcGen, _PendingObligation, _State
from .heap import HEAP, HeapFnCtx, HeapVcGen, _is_heap_type


class Unsupported(Exception):
    """The pipeline cannot express this program (e.g. cyclic pointers)."""


class Pipeline:
    """A named verification pipeline."""

    name = "abstract"

    def verify(self, module: A.Module) -> ModuleResult:
        raise NotImplementedError

    def __repr__(self):
        return f"<Pipeline {self.name}>"


class VerusPipeline(Pipeline):
    name = "verus"

    def __init__(self, config: Optional[VcConfig] = None):
        self.config = config or VcConfig()

    def verify(self, module: A.Module) -> ModuleResult:
        return VcGen(module, self.config).verify_module()


def _heap_config() -> VcConfig:
    """Heap pipelines need generous budgets: frame-axiom chains make their
    queries genuinely harder — they should succeed *slowly*, not fail."""
    return VcConfig(
        trigger_policy=BROAD, prune_context=False,
        solver_config=SolverConfig(trigger_policy=BROAD, max_rounds=240,
                                   max_instantiations=24000))


class DafnyPipeline(Pipeline):
    """Heap encoding + broad triggers + whole-context queries."""

    name = "dafny"

    def verify(self, module: A.Module) -> ModuleResult:
        return HeapVcGen(module, _heap_config()).verify_module()


# ---------------------------------------------------------------------------
# F* / Low*
# ---------------------------------------------------------------------------

class FStarVcGen(HeapVcGen):
    """Heap encoding + the fat FStar.Seq-style lemma context + fuel retry."""

    LIB_LEMMAS_EMITTED = "_fstar_lib_done"
    ABSINT_TRIAGE = False

    def context_axioms(self, encoder: Encoder, spec_axioms: list):
        base = super().context_axioms(encoder, spec_axioms)
        return base + _seq_library_lemmas(encoder)

    def solver_configs(self, config):
        # F*'s fuel-retry loop: a failed query re-runs with 2x, then 4x
        # the fuel.  The scheduler's discharge config is not used.
        base = self.config.make_solver_config()
        return [base] + [
            SolverConfig(trigger_policy=base.trigger_policy,
                         max_rounds=base.max_rounds,
                         max_instantiations=base.max_instantiations * fuel)
            for fuel in (2, 4)]


def _seq_library_lemmas(encoder: Encoder) -> list[T.Term]:
    """Valid derived Seq lemmas, mirroring FStar.Seq's fat axiom set.

    Every lemma is a logical consequence of the core Seq axioms, so adding
    them is sound; their broad applicability multiplies E-matching work —
    the structural reason Low* queries are the largest in Figure 7.
    """
    lemmas: list[T.Term] = []
    for key in list(encoder._axiom_keys):
        if not (isinstance(key, tuple) and key[0] == "seq"):
            continue
        tag = key[1]
        # Recover the function declarations by name from the cache.
        def get(name, args, ret):
            return encoder.fn(f"{tag}.{name}", args, ret)
        # Find the sorts from an existing decl.
        len_decl = next((d for k, d in encoder._decl_cache.items()
                         if k[0] == f"{tag}.len"), None)
        idx_decl = next((d for k, d in encoder._decl_cache.items()
                         if k[0] == f"{tag}.index"), None)
        if len_decl is None or idx_decl is None:
            continue
        s = len_decl.arg_sorts[0]
        e = idx_decl.ret_sort
        ln = len_decl
        ix = idx_decl
        upd = encoder.fn(f"{tag}.update", [s, SINT, e], s)
        cat = encoder.fn(f"{tag}.concat", [s, s], s)
        a, b, c = T.Var("fs!a", s), T.Var("fs!b", s), T.Var("fs!c", s)
        i, j = T.Var("fs!i", SINT), T.Var("fs!j", SINT)
        v, w = T.Var("fs!v", e), T.Var("fs!w", e)
        zero = T.IntVal(0)
        lemmas.extend([
            # double update at the same index collapses
            T.ForAll([a, i, v, w],
                     T.Eq(ln(upd(upd(a, i, v), i, w)), ln(a)),
                     triggers=[[upd(upd(a, i, v), i, w)]]),
            # length of triple concat associates
            T.ForAll([a, b, c],
                     T.Eq(ln(cat(cat(a, b), c)),
                          T.Add(ln(a), ln(b), ln(c))),
                     triggers=[[cat(cat(a, b), c)]]),
            # reading a concat's left side commutes with update on right
            T.ForAll([a, b, i, j, v],
                     T.Implies(T.And(T.Le(zero, i), T.Lt(i, ln(a))),
                               T.Eq(ix(cat(upd(a, j, v), b), i),
                                    ix(upd(a, j, v), i))),
                     triggers=[[ix(cat(upd(a, j, v), b), i)]]),
            # update does not change length, concat form
            T.ForAll([a, b, i, v],
                     T.Eq(ln(cat(upd(a, i, v), b)),
                          T.Add(ln(a), ln(b))),
                     triggers=[[cat(upd(a, i, v), b)]]),
            # index within bounds is itself after identity update
            T.ForAll([a, i, j],
                     T.Implies(
                         T.And(T.Le(zero, i), T.Lt(i, ln(a)),
                               T.Le(zero, j), T.Lt(j, ln(a))),
                         T.Eq(ix(upd(a, j, ix(a, j)), i), ix(a, i))),
                     triggers=[[ix(upd(a, j, ix(a, j)), i)]]),
        ])
    return lemmas


class FStarPipeline(Pipeline):
    name = "fstar"

    def verify(self, module: A.Module) -> ModuleResult:
        return FStarVcGen(module, _heap_config()).verify_module()


# ---------------------------------------------------------------------------
# Creusot
# ---------------------------------------------------------------------------

class CreusotVcGen(VcGen):
    """Value encoding (ownership-based, like Verus) but broad triggers and
    a Why3-style prover portfolio: race a quick configuration against a
    thorough one; failures must exhaust the whole portfolio."""

    PORTFOLIO = (
        dict(max_rounds=12, max_instantiations=400),
        dict(max_rounds=60, max_instantiations=6000),
        dict(max_rounds=90, max_instantiations=12000),
    )

    ABSINT_TRIAGE = False

    def solver_configs(self, config):
        return [SolverConfig(trigger_policy=BROAD, **entry)
                for entry in self.PORTFOLIO]


class CreusotPipeline(Pipeline):
    name = "creusot"

    def verify(self, module: A.Module) -> ModuleResult:
        if module.attrs_get("uses_cyclic"):
            # Creusot handles this via unsafe-free encodings but needs
            # manual intervention (the * footnote in Figure 7a); we model
            # it as a slower full-portfolio verification.
            pass
        config = VcConfig(trigger_policy=BROAD, prune_context=False)
        return CreusotVcGen(module, config).verify_module()


# ---------------------------------------------------------------------------
# Prusti
# ---------------------------------------------------------------------------

class PrustiFnCtx(HeapFnCtx):
    """Heap encoding plus Viper-style permission re-verification.

    Prusti re-proves what rustc's borrow checker already knows: before
    every statement it exhales/inhales access permissions for the
    references the statement touches.  We model this with an uninterpreted
    ``perm(Heap, ref)`` predicate: assumed for all refs at entry, framed
    across writes by a quantified axiom, and *checked* before each access.
    """

    def setup_params(self, env, assumptions):
        super().setup_params(env, assumptions)
        perm = self.encoder.fn("heap.perm", [HEAP, SINT],
                               T.TRUE.sort)
        h = T.Var("pm!h", HEAP)
        r = T.Var("pm!r", SINT)
        # all permissions granted at entry
        assumptions.append(
            T.ForAll([r], perm(env["$heap"], r),
                     triggers=[[perm(env["$heap"], r)]]))
        self._perm = perm

    def _emit_heap_axioms(self, vtype, tag):
        super()._emit_heap_axioms(vtype, tag)
        # Permissions are preserved by writes (framing for perm).
        s = self.encoder.sort_of(vtype)
        write = self.encoder.fn(f"heap.write.{tag}", [HEAP, SINT, s], HEAP)
        perm = self.encoder.fn("heap.perm", [HEAP, SINT], T.TRUE.sort)
        h = T.Var("pm!h", HEAP)
        r, r2 = T.Var("pm!r", SINT), T.Var("pm!r2", SINT)
        v = T.Var(f"pm!v!{tag}", s)
        self.encoder.axioms.append(
            T.ForAll([h, r, v, r2],
                     T.Eq(perm(write(h, r, v), r2), perm(h, r2)),
                     triggers=[[perm(write(h, r, v), r2)]]))

    def exec_stmt(self, stmt, state):
        touched = [n for n in self.heap_refs
                   if n in state.env and _mentions(stmt, n)]
        for name in touched:
            ref = state.env[name]
            if ref.sort is SINT:
                self._oblige(state, self._perm(state.env["$heap"], ref),
                             f"permission to access {name}", "permission")
        super().exec_stmt(stmt, state)


def _mentions(stmt: A.Stmt, name: str) -> bool:
    from ..vc.wp import _stmt_exprs, _walk_expr
    for e in _stmt_exprs(stmt):
        for sub in _walk_expr(e):
            if isinstance(sub, (A.VarE, A.Old)) and sub.name == name:
                return True
    if isinstance(stmt, (A.SLet, A.SAssign)) and stmt.name == name:
        return True
    return False


class PrustiVcGen(HeapVcGen):
    CTX_CLS = PrustiFnCtx


class PrustiPipeline(Pipeline):
    name = "prusti"

    def verify(self, module: A.Module) -> ModuleResult:
        if module.attrs_get("uses_cyclic"):
            raise Unsupported(
                "Prusti cannot express cyclic pointer structures "
                "(Figure 7a: doubly linked list is n/a)")
        return PrustiVcGen(module, _heap_config()).verify_module()


# ---------------------------------------------------------------------------
# Ivy
# ---------------------------------------------------------------------------

class IvyPipeline(Pipeline):
    name = "ivy"

    def verify(self, module: A.Module) -> ModuleResult:
        violations = check_epr_module(module)
        if violations:
            raise Unsupported(
                "Ivy accepts only EPR programs: "
                + "; ".join(v.reason for v in violations[:3]))
        return verify_epr_module(module)


PIPELINES: dict[str, Pipeline] = {
    "verus": VerusPipeline(),
    "dafny": DafnyPipeline(),
    "fstar": FStarPipeline(),
    "creusot": CreusotPipeline(),
    "prusti": PrustiPipeline(),
    "ivy": IvyPipeline(),
}


def time_pipeline(pipeline: Pipeline, module: A.Module
                  ) -> tuple[Optional[ModuleResult], float]:
    """(result, wall seconds); result None when the tool can't express it."""
    t0 = time.perf_counter()
    try:
        result = pipeline.verify(module)
    except Unsupported:
        return None, 0.0
    return result, time.perf_counter() - t0
