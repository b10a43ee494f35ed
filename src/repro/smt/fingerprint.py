"""Deterministic term serialization and content fingerprints.

Two services for the verification scheduler (:mod:`repro.vc.scheduler`):

1. **Serialization** — terms are hash-consed per process
   (:class:`repro.smt.terms.Term` has a custom ``__new__`` and cannot be
   pickled), so obligation jobs that cross a process boundary carry a
   portable node-table encoding of the term DAG instead.  Deserialization
   rebuilds through the smart constructors, which are idempotent on their
   own output, so the worker reconstructs structurally identical terms.

2. **Fingerprints** — ``sha256(canonical SMT-LIB2 query text + solver
   knobs + discharge strategy)``, the content address used by the
   on-disk proof cache (:mod:`repro.cache.store`).  All hashing inputs are
   deterministic: term hashes use :func:`repro.smt.sorts._dhash` and the
   printer emits declarations in sorted order.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from . import sorts as S
from . import terms as T
from .printer import query_to_smtlib


# ---------------------------------------------------------------------------
# Sort encoding
# ---------------------------------------------------------------------------

def encode_sort(sort: S.Sort):
    if sort is S.BOOL:
        return "B"
    if sort is S.INT:
        return "I"
    if isinstance(sort, S.BitVecSort):
        return ("bv", sort.width)
    if isinstance(sort, S.UninterpretedSort):
        return ("u", sort.name)
    raise ValueError(f"cannot serialize sort {sort!r}")


def decode_sort(enc) -> S.Sort:
    if enc == "B":
        return S.BOOL
    if enc == "I":
        return S.INT
    tag, arg = enc
    if tag == "bv":
        return S.bv(arg)
    if tag == "u":
        return S.uninterpreted(arg)
    raise ValueError(f"cannot deserialize sort {enc!r}")


# ---------------------------------------------------------------------------
# Term DAG serialization
# ---------------------------------------------------------------------------

def _children(t: T.Term) -> tuple:
    """All sub-Terms a node references, including quantifier payload terms."""
    if t.is_quant():
        trig_terms = tuple(p for grp in t.payload[1] for p in grp)
        return t.payload[0] + trig_terms + t.args
    return t.args


def serialize_terms(terms: Sequence[T.Term]) -> tuple:
    """Encode a list of terms as a picklable ``(nodes, decls, roots)`` table.

    Shared subterms are emitted once (the DAG structure survives), so the
    payload size tracks the hash-consed size, not the tree size.
    """
    nodes: list = []
    index: dict[T.Term, int] = {}
    decls: list = []
    decl_ix: dict[T.FuncDecl, int] = {}

    def decl_id(decl: T.FuncDecl) -> int:
        i = decl_ix.get(decl)
        if i is None:
            i = len(decls)
            decls.append((decl.name,
                          tuple(encode_sort(s) for s in decl.arg_sorts),
                          encode_sort(decl.ret_sort)))
            decl_ix[decl] = i
        return i

    def emit(t: T.Term) -> None:
        k = t.kind
        if k == T.VAR:
            node = ("v", t.payload, encode_sort(t.sort))
        elif k == T.BOOL_CONST:
            node = ("cb", bool(t.payload))
        elif k == T.INT_CONST:
            node = ("ci", t.payload)
        elif k == T.BV_CONST:
            node = ("cv", t.payload, t.sort.width)
        elif k == T.APP:
            node = ("a", decl_id(t.payload),
                    tuple(index[a] for a in t.args))
        elif t.is_quant():
            node = ("q", k,
                    tuple(index[v] for v in t.payload[0]),
                    tuple(tuple(index[p] for p in grp)
                          for grp in t.payload[1]),
                    index[t.args[0]])
        else:
            node = ("o", k, tuple(index[a] for a in t.args))
        index[t] = len(nodes)
        nodes.append(node)

    for root in terms:
        stack = [root]
        while stack:
            t = stack[-1]
            if t in index:
                stack.pop()
                continue
            missing = [c for c in _children(t) if c not in index]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            emit(t)
    return nodes, decls, tuple(index[t] for t in terms)


_OPS = {
    T.NOT: lambda a: T.Not(a[0]),
    T.AND: lambda a: T.And(*a),
    T.OR: lambda a: T.Or(*a),
    T.IMPLIES: lambda a: T.Implies(*a),
    T.EQ: lambda a: T.Eq(*a),
    T.DISTINCT: lambda a: T.Distinct(*a),
    T.ITE: lambda a: T.Ite(*a),
    T.ADD: lambda a: T.Add(*a),
    T.SUB: lambda a: T.Sub(*a),
    T.MUL: lambda a: T.Mul(*a),
    T.IDIV: lambda a: T.Div(*a),
    T.IMOD: lambda a: T.Mod(*a),
    T.NEG: lambda a: T.Neg(a[0]),
    T.LE: lambda a: T.Le(*a),
    T.LT: lambda a: T.Lt(*a),
    T.BVNOT: lambda a: T.BvNot(a[0]),
}


def _build_op(kind: str, args: list) -> T.Term:
    builder = _OPS.get(kind)
    if builder is not None:
        return builder(args)
    if kind in T.BV_KINDS:
        return T._bv_binop(kind, args[0], args[1],
                           ret_bool=kind in (T.BVULE, T.BVULT))
    raise ValueError(f"cannot deserialize term kind {kind!r}")


def deserialize_terms(payload: tuple) -> list[T.Term]:
    """Rebuild the terms encoded by :func:`serialize_terms`."""
    nodes, decls, roots = payload
    decl_objs = [T.FuncDecl(name,
                            [decode_sort(s) for s in arg_encs],
                            decode_sort(ret_enc))
                 for name, arg_encs, ret_enc in decls]
    built: list[T.Term] = []
    for node in nodes:
        tag = node[0]
        if tag == "v":
            built.append(T.Var(node[1], decode_sort(node[2])))
        elif tag == "cb":
            built.append(T.BoolVal(node[1]))
        elif tag == "ci":
            built.append(T.IntVal(node[1]))
        elif tag == "cv":
            built.append(T.BVVal(node[1], node[2]))
        elif tag == "a":
            built.append(decl_objs[node[1]](*[built[i] for i in node[2]]))
        elif tag == "q":
            _, kind, bound, trigs, body = node
            bvars = tuple(built[i] for i in bound)
            triggers = tuple(tuple(built[i] for i in grp) for grp in trigs)
            mk = T.ForAll if kind == T.FORALL else T.Exists
            built.append(mk(bvars, built[body], triggers or None))
        else:
            built.append(_build_op(node[1], [built[i] for i in node[2]]))
    return [built[r] for r in roots]


# ---------------------------------------------------------------------------
# Content fingerprints
# ---------------------------------------------------------------------------

def solver_config_key(config) -> dict:
    """The JSON-able knob dict that participates in the cache key.

    Every :class:`~repro.smt.solver.SolverConfig` attribute affects
    verdicts (budgets change TIMEOUT outcomes), so all of them are keyed.
    """
    return {k: v for k, v in sorted(vars(config).items())}


def obligation_digest(assertions: Sequence[T.Term], config_key: dict,
                      strategy: str = "") -> str:
    """Content address of one obligation: query text + knobs + strategy.

    ``strategy`` names the discharge loop (the VcGen subclass), so that
    e.g. an F*-style solver-racing pipeline never shares entries with the
    default single-shot discharge of the same query text.
    """
    h = hashlib.sha256()
    h.update(query_to_smtlib(assertions).encode())
    h.update(b"\x00")
    h.update(json.dumps(config_key, sort_keys=True, default=str).encode())
    h.update(b"\x00")
    h.update(strategy.encode())
    return h.hexdigest()


def function_fingerprint(chunks: Sequence[str], config_key: dict,
                         strategy: str = "") -> str:
    """Function-level dependency fingerprint for delta re-verification.

    ``chunks`` are canonical renderings of everything a function's
    verification outcome depends on (its own AST, datatype declarations,
    reachable spec-function definitions, callee contracts — assembled by
    :mod:`repro.vc.delta`).  The hash is namespaced with a leading
    ``fn\\x00`` marker so a function fingerprint can never collide with
    an :func:`obligation_digest` of the same text.
    """
    h = hashlib.sha256()
    h.update(b"fn\x00")
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\x00")
    h.update(json.dumps(config_key, sort_keys=True, default=str).encode())
    h.update(b"\x00")
    h.update(strategy.encode())
    return h.hexdigest()


def idiom_digest(engine: str, terms: Sequence[T.Term]) -> str:
    """Content address of a §3.3 idiom-engine query.

    The engines (``bit_vector`` bit-blasting, ``nonlinear_arith``,
    ``integer_ring``) are deterministic functions of their translated
    terms alone — no solver knobs participate — so the key is just the
    engine name plus the canonical text of each term.
    """
    h = hashlib.sha256()
    h.update(engine.encode())
    for t in terms:
        h.update(b"\x00")
        h.update(query_to_smtlib([t]).encode())
    return h.hexdigest()
