"""Function-level delta re-verification (dependency fingerprints).

The obligation-level proof cache (:mod:`repro.cache`) already skips
the *solver* on unchanged queries, but planning a function — symbolic
execution, axiom generation, idiom engines — still runs every time.
This module skips planning too: each function gets a **dependency
fingerprint** covering everything its verification outcome can depend
on — its own AST (contracts, body, spans), the module's datatype
declarations, the definitions of every transitively reachable spec
function, the contracts of every function it calls, and the solver
knobs/strategy.  When the fingerprint of a fully-PROVED function is
unchanged, ``run_module`` replays the recorded per-obligation metadata
without re-planning or re-solving.

Only fully verified functions are recorded: failures must re-run so the
diagnostics pipeline sees live solver state.  Anything the fingerprint
cannot see (a custom ``VcGen`` subclass hook, say) is covered by the
``strategy`` component, which names the pipeline class.
"""

from __future__ import annotations

import functools
import os
from typing import Optional

from ..cache.store import FUNCTION, ProofCache
from ..smt.fingerprint import function_fingerprint, solver_config_key
from . import ast as A
from . import types as VT
from .errors import PROVED, FunctionResult, Obligation


# ---------------------------------------------------------------------------
# Canonical AST rendering
# ---------------------------------------------------------------------------

def _render_type(t, busy: set) -> str:
    """Deterministic text of a VType, structure included.

    Struct/enum types render their full field/variant layout (a changed
    field type must change the fingerprint); recursive datatypes are cut
    off by name on re-entry.
    """
    if not isinstance(t, VT.VType):
        return repr(t)
    if id(t) in busy:
        return f"rec:{t.name}"
    if isinstance(t, VT.StructType):
        busy.add(id(t))
        try:
            fields = ",".join(
                f"{fname}:{_render_type(ft, busy)}"
                for fname, ft in (t.fields or {}).items())
        finally:
            busy.discard(id(t))
        return f"struct:{t.name}{{{fields}}}"
    if isinstance(t, VT.EnumType):
        busy.add(id(t))
        try:
            variants = ";".join(
                f"{v}({','.join(f'{fn}:{_render_type(ft, busy)}' for fn, ft in fields.items())})"
                for v, fields in (t.variants or {}).items())
        finally:
            busy.discard(id(t))
        return f"enum:{t.name}{{{variants}}}"
    return t.name


@functools.lru_cache(maxsize=1024)
def _import_relative(file: str) -> str:
    """``file`` relative to its import root, the nearest ancestor directory
    that is not a package: ``repro/systems/ironkv/delegation_map.py`` for
    the delegation map wherever the checkout lives.  Pseudo-files such as
    ``<string>`` are returned unchanged."""
    if file.startswith("<"):
        return file
    head, tail = os.path.split(os.path.abspath(file))
    parts = [tail]
    while os.path.isfile(os.path.join(head, "__init__.py")):
        head, name = os.path.split(head)
        if not name:
            break
        parts.append(name)
    return "/".join(reversed(parts))


def canonical_node(node, _memo: Optional[dict] = None) -> str:
    """Deterministic text rendering of any AST node (tree, recursively).

    Covers every attribute the node carries — including source spans, so
    a function that merely *moved* re-verifies rather than replaying
    stale locations from the delta cache.  A span names its file relative
    to the import root, so digests do not depend on where the checkout
    lives.
    """
    if _memo is None:
        _memo = {}
    if node is None:
        return "~"
    if isinstance(node, (str, int, float, bool)):
        return repr(node)
    if isinstance(node, A.Span):
        return f"@{_import_relative(node.file)}:{node.line}"
    if isinstance(node, VT.VType):
        return _render_type(node, set())
    if isinstance(node, dict):
        inner = ",".join(f"{k!r}:{canonical_node(v, _memo)}"
                         for k, v in sorted(node.items(), key=lambda kv:
                                            repr(kv[0])))
        return "{" + inner + "}"
    if isinstance(node, (list, tuple)):
        return "[" + ",".join(canonical_node(x, _memo) for x in node) + "]"
    key = id(node)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    attrs = vars(node)
    inner = ",".join(f"{k}={canonical_node(v, _memo)}"
                     for k, v in sorted(attrs.items()))
    # `span` lives on the class (default None) when no builder set it.
    if "span" not in attrs and getattr(node, "span", None) is not None:
        inner += f",span={canonical_node(node.span, _memo)}"
    text = f"{type(node).__name__}({inner})"
    _memo[key] = text
    return text


def _called_functions(fn: A.Function, module: A.Module) -> list[A.Function]:
    """Non-spec callees of fn's body, by contract dependency.

    Exec/proof calls are modular: the caller's verification depends only
    on the callee's *signature and contracts*, which is exactly what the
    fingerprint includes for them (spec functions are handled separately,
    definitions included, via ``reachable_spec_fns``).
    """
    names: list[str] = []
    seen: set[str] = set()

    def visit_stmts(stmts):
        for s in stmts or ():
            if isinstance(s, A.SCall) and s.fn_name not in seen:
                seen.add(s.fn_name)
                names.append(s.fn_name)
            elif isinstance(s, A.SIf):
                visit_stmts(s.then)
                visit_stmts(s.els)
            elif isinstance(s, A.SWhile):
                visit_stmts(s.body)

    if isinstance(fn.body, list):
        visit_stmts(fn.body)
    all_fns = module.all_functions()
    return [all_fns[n] for n in names if n in all_fns]


def _contract_text(fn: A.Function) -> str:
    """Signature + contracts only (no body): the modular dependency."""
    memo: dict = {}
    parts = [fn.name, fn.mode,
             canonical_node(list(fn.params), memo),
             canonical_node(fn.ret, memo),
             canonical_node(list(fn.requires), memo),
             canonical_node(list(fn.ensures), memo),
             canonical_node(fn.decreases, memo)]
    return "|".join(parts)


def function_dependency_digest(gen, fn: A.Function, solver_config=None,
                               lineup=(), static_tier: bool = True) -> str:
    """Content address of everything fn's verification depends on.

    ``solver_config`` is the *effective* solver configuration the
    obligations will run under.  The scheduler layers knobs (notably the
    ``max_steps`` resource budget) on top of ``gen.config``'s base config,
    and a verdict proved under one budget says nothing about another —
    callers that apply overrides must pass the layered config or the
    digest would alias across budgets and replay stale verdicts.

    ``lineup`` is the run's escalation attempt keys (race candidates,
    then ladder rungs): a function an attempt rescued is fully verified
    only for runs with the same lineup.  ``static_tier`` says whether the
    static proving tier answers obligations: a function it discharged
    was not checked by any solver, and a run without the tier must not
    replay it.  An empty lineup with the tier answering (the default
    run) leaves the digest unchanged.
    """
    module = gen.module
    chunks = [f"module:{module.name}:epr={module.epr_mode}",
              canonical_node(module.attrs),
              canonical_node(fn)]
    for dt in module.datatypes:
        chunks.append(_render_type(dt, set()))
    for spec in sorted(gen.reachable_spec_fns(fn), key=lambda f: f.name):
        chunks.append(canonical_node(spec))
    for callee in sorted(_called_functions(fn, module),
                         key=lambda f: f.name):
        chunks.append(_contract_text(callee))
    if solver_config is None:
        solver_config = gen.config.make_solver_config()
    config_key = solver_config_key(solver_config)
    if lineup:
        config_key = [config_key] + list(lineup)
    if not static_tier:
        config_key = {"config": config_key, "static_tier": False}
    return function_fingerprint(chunks, config_key, type(gen).__qualname__)


# ---------------------------------------------------------------------------
# Function entries in the proof-cache directory
# ---------------------------------------------------------------------------

# Per-obligation escalation record kept by a function entry, so a
# delta-replayed report carries the trail its cold run reported: the
# ladder (``retries``/``escalation``) and the race (``portfolio``, and
# the winning ``profile``).
REPLAYED_STATS = ("escalation", "retries", "portfolio", "profile")


def _valid_function(entry: dict, digest: str) -> bool:
    return isinstance(entry.get("obligations"), list)


class DeltaCache:
    """Function entries in the proof-cache directory at ``root``.

    A typed view over :class:`~repro.cache.store.ProofCache`: entries
    record the per-obligation metadata of a *fully verified* function
    (labels, kinds, seqs, spans, escalation records, query bytes) keyed
    by its dependency fingerprint; a hit replays the function result
    without planning or solving.  The store supplies the path, the
    atomic write and the eviction of malformed entries; the verdict
    counters never move.
    """

    def __init__(self, root: str):
        self._store = ProofCache(root)
        self.skips = 0
        self.misses = 0
        self.stores = 0

    def lookup(self, digest: str) -> Optional[dict]:
        entry = self._store.read(digest, FUNCTION, _valid_function)
        if entry is None:
            self.misses += 1
            return None
        self.skips += 1
        return entry

    def store(self, digest: str, function: str, result: FunctionResult) -> None:
        """Record a fully verified function's obligation metadata."""
        if not result.ok:
            return
        entry = {
            "digest": digest,
            "kind": FUNCTION,
            "function": function,
            "query_bytes": result.query_bytes,
            "obligations": [
                {"label": o.label, "kind": o.kind, "seq": o.seq,
                 "span": o.span.to_dict() if o.span is not None else None,
                 "record": {k: o.stats[k] for k in REPLAYED_STATS
                            if k in o.stats}}
                for o in result.obligations
            ],
        }
        if self._store.write(entry):
            self.stores += 1


def replay_function(entry: dict) -> FunctionResult:
    """Rebuild a FunctionResult from a delta-cache hit (all PROVED,
    answered by ``delta``), escalation records included: the digest
    keys whether the static tier answers and which attempts escalation
    runs, so an entry only replays into a run that produces the same
    verdicts."""
    result = FunctionResult(entry["function"])
    result.query_bytes = int(entry.get("query_bytes", 0))
    result.seconds = 0.0
    for rec in entry["obligations"]:
        ob = Obligation(rec["label"], rec["kind"])
        ob.status = PROVED
        ob.seq = int(rec.get("seq", 0))
        ob.answered_by = "delta"
        ob.stats = dict(rec.get("record") or {})
        span = rec.get("span")
        if span:
            ob.span = A.Span.from_dict(span)
        result.obligations.append(ob)
    return result


def replayed_counters(result: FunctionResult) -> dict:
    """The module counters the escalation records of a replayed function
    stand for, so a delta-warm run reports the races and ladder rescues
    of the run that stored it.  Every replayed obligation is PROVED: a
    ladder trail on it is a rescue, a race record with a winner a win."""
    counters = dict.fromkeys(("portfolio_races", "portfolio_wins",
                              "retries", "retry_recoveries"), 0)
    for ob in result.obligations:
        race = ob.stats.get("portfolio")
        if race is not None:
            counters["portfolio_races"] += 1
            counters["portfolio_wins"] += race.get("winner") is not None
        rungs = ob.stats.get("retries", 0)
        counters["retries"] += rungs
        counters["retry_recoveries"] += rungs > 0
    return counters
