"""Hash-consed term representation and smart constructors.

Every term is interned: structurally equal terms are the same Python object,
so equality tests and dict lookups are O(1) identity operations.  This is the
single most important performance property of the solver stack — congruence
closure, E-matching, and the VC generator all lean on it.

Hashing contract: :class:`Term`, :class:`FuncDecl` and
:class:`~repro.smt.sorts.Sort` keep ``object.__hash__``, so every dict and
set lookup hashes by identity in C without calling Python code.  Each
object also carries ``_hash``, a deterministic structural hash; it is the
only key for ordering decisions (canonical members, sorted universes,
scope keys).  Identity hashes differ between runs, so iteration order of
a ``set`` of terms must never reach the search, a printed query, a digest
or a finding: iterate a list or an insertion-ordered dict, or sort by
``_hash``.

Terms are built through the module-level smart constructors (:func:`And`,
:func:`Eq`, :func:`ForAll`, ...) which perform light, always-sound
simplification (constant folding, flattening, double-negation) so that the
boolean skeleton handed to the SAT solver stays small.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator, Optional, Sequence

from .sorts import BOOL, INT, BitVecSort, Sort, _dhash


def _combine(*parts: int) -> int:
    """Deterministic hash combiner (order-sensitive)."""
    acc = 0x811C9DC5
    for p in parts:
        acc = (acc ^ (p & 0xFFFFFFFFFFFFFFFF)) * 0x100000001B3
        acc &= 0xFFFFFFFFFFFFFFFF
    return acc


def _payload_hash(payload) -> int:
    if payload is None:
        return 0
    if isinstance(payload, str):
        return _dhash(payload)
    if isinstance(payload, bool):
        return 2 if payload else 1
    if isinstance(payload, int):
        return payload & 0xFFFFFFFFFFFFFFFF
    if isinstance(payload, FuncDecl):
        return payload._hash
    if isinstance(payload, tuple):
        return _combine(*(_payload_hash(p) if not isinstance(p, Term)
                          else p._hash for p in _flatten_payload(payload)))
    raise TypeError(f"unhashable payload {payload!r}")


def _flatten_payload(payload):
    for p in payload:
        if isinstance(p, tuple):
            yield from _flatten_payload(p)
        else:
            yield p

# ---------------------------------------------------------------------------
# Term kinds
# ---------------------------------------------------------------------------

VAR = "var"            # free constant (or quantifier-bound variable)
BOOL_CONST = "bool"
INT_CONST = "int"
BV_CONST = "bv"
APP = "app"            # uninterpreted function application
NOT = "not"
AND = "and"
OR = "or"
IMPLIES = "=>"
ITE = "ite"
EQ = "="
DISTINCT = "distinct"
ADD = "+"
SUB = "-"
MUL = "*"
IDIV = "div"
IMOD = "mod"
NEG = "neg"
LE = "<="
LT = "<"
FORALL = "forall"
EXISTS = "exists"
# Bit-vector operations (all operate on equal widths).
BVAND = "bvand"
BVOR = "bvor"
BVXOR = "bvxor"
BVNOT = "bvnot"
BVADD = "bvadd"
BVSUB = "bvsub"
BVMUL = "bvmul"
BVUDIV = "bvudiv"
BVUREM = "bvurem"
BVSHL = "bvshl"
BVLSHR = "bvlshr"
BVULE = "bvule"
BVULT = "bvult"

ARITH_KINDS = frozenset({ADD, SUB, MUL, IDIV, IMOD, NEG, LE, LT})
BV_KINDS = frozenset(
    {BVAND, BVOR, BVXOR, BVNOT, BVADD, BVSUB, BVMUL, BVUDIV, BVUREM,
     BVSHL, BVLSHR, BVULE, BVULT}
)
QUANT_KINDS = frozenset({FORALL, EXISTS})


class FuncDecl:
    """An uninterpreted function (or constant) declaration; interned.

    Lookups hash by identity; ``_hash`` orders (see the module docstring).
    """

    __slots__ = ("name", "arg_sorts", "ret_sort", "_hash")
    _interned: dict[tuple, "FuncDecl"] = {}

    def __new__(cls, name: str, arg_sorts: Sequence[Sort], ret_sort: Sort,
                reserved: bool = False):
        if (SOLVER_MARK in name) != reserved:
            raise ValueError(f"{name!r}: only reserved names hold the mark")
        key = (name, tuple(arg_sorts), ret_sort)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        obj = super().__new__(cls)
        obj.name = name
        obj.arg_sorts = tuple(arg_sorts)
        obj.ret_sort = ret_sort
        obj._hash = _combine(_dhash(name),
                             *(s._hash for s in obj.arg_sorts),
                             ret_sort._hash)
        # setdefault is atomic under the GIL: concurrent threads interning
        # the same key all receive one canonical object (`is` stays sound).
        return cls._interned.setdefault(key, obj)

    def __repr__(self) -> str:
        return self.name

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __call__(self, *args: "Term") -> "Term":
        return App(self, *args)


class Term:
    """An interned SMT term.

    Attributes:
        kind: one of the kind constants above.
        sort: the term's sort.
        args: child terms.
        payload: kind-specific data — the variable name for ``VAR``, the
            Python value for constants, the :class:`FuncDecl` for ``APP``,
            and ``(bound_vars, triggers)`` for quantifiers.

    Interned, so ``a is b`` iff equal.  Dict and set lookups use the
    inherited identity hash; ``_hash`` is the deterministic structural
    hash, used only to order terms (see the module docstring).
    """

    __slots__ = ("kind", "sort", "args", "payload", "_hash", "_free",
                 "_size")
    _interned: dict[tuple, "Term"] = {}

    def __new__(cls, kind: str, sort: Sort, args: tuple = (), payload=None):
        key = (kind, sort, args, payload)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        obj = super().__new__(cls)
        obj.kind = kind
        obj.sort = sort
        obj.args = args
        obj.payload = payload
        obj._hash = _combine(_dhash(kind), sort._hash,
                             *(a._hash for a in args),
                             _payload_hash(payload))
        obj._free = None
        obj._size = None
        # Atomic under the GIL; losers of a racy double-construct are dropped.
        return cls._interned.setdefault(key, obj)

    def __repr__(self) -> str:
        from .printer import term_to_str

        return term_to_str(self)

    # -- inspection helpers -------------------------------------------------

    def is_const(self) -> bool:
        return self.kind in (BOOL_CONST, INT_CONST, BV_CONST)

    def is_var(self) -> bool:
        return self.kind == VAR

    def is_quant(self) -> bool:
        return self.kind in QUANT_KINDS

    @property
    def value(self):
        """The Python value of a constant term."""
        if not self.is_const():
            raise ValueError(f"not a constant: {self!r}")
        return self.payload

    @property
    def decl(self) -> FuncDecl:
        if self.kind != APP:
            raise ValueError(f"not an application: {self!r}")
        return self.payload

    @property
    def bound_vars(self) -> tuple:
        if not self.is_quant():
            raise ValueError(f"not a quantifier: {self!r}")
        return self.payload[0]

    @property
    def triggers(self) -> tuple:
        if not self.is_quant():
            raise ValueError(f"not a quantifier: {self!r}")
        return self.payload[1]

    @property
    def body(self) -> "Term":
        if not self.is_quant():
            raise ValueError(f"not a quantifier: {self!r}")
        return self.args[0]

    def free_vars(self) -> frozenset:
        """Free VAR terms, a quantifier's triggers included; cached."""
        if self._free is not None:
            return self._free
        if self.kind == VAR:
            result = frozenset((self,))
        elif self.is_quant():
            result = self.args[0].free_vars().union(
                *(p.free_vars() for grp in self.payload[1] for p in grp)
            ) - frozenset(self.payload[0])
        else:
            result = frozenset()
            for a in self.args:
                result |= a.free_vars()
        self._free = result
        return result

    def subterms(self) -> Iterator["Term"]:
        """Iterate all subterms (including self), pre-order, deduplicated."""
        seen = set()
        stack = [self]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            yield t
            stack.extend(t.args)

    def size(self) -> int:
        """Number of distinct subterms (DAG size), computed once and cached.

        Interned terms share subterms, so this is not derivable from the
        children's sizes; the first call walks the DAG."""
        if self._size is None:
            self._size = sum(1 for _ in self.subterms())
        return self._size


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

TRUE = Term(BOOL_CONST, BOOL, (), True)
FALSE = Term(BOOL_CONST, BOOL, (), False)


def BoolVal(b: bool) -> Term:
    return TRUE if b else FALSE


# Small integer literals dominate encoder output (indices, bounds, enum
# tags); serving them from a preallocated table skips the intern-dict
# key construction and lookup in Term.__new__ on the hottest path.
_SMALL_INTS = tuple(Term(INT_CONST, INT, (), i) for i in range(-16, 257))


def IntVal(n: int) -> Term:
    if type(n) is int and -16 <= n <= 256:
        return _SMALL_INTS[n + 16]
    return Term(INT_CONST, INT, (), int(n))


def BVVal(value: int, width: int) -> Term:
    mask = (1 << width) - 1
    return Term(BV_CONST, BitVecSort(width), (), value & mask)


# Held by the names a solver makes (made with reserved=True), and no other.
SOLVER_MARK = "'"


def Var(name: str, sort: Sort, reserved: bool = False) -> Term:
    if (SOLVER_MARK in name) != reserved:
        raise ValueError(f"{name!r}: only reserved names hold the mark")
    return Term(VAR, sort, (), name)


def App(decl: FuncDecl, *args: Term) -> Term:
    if len(args) != decl.arity:
        raise ValueError(f"{decl.name} expects {decl.arity} args, got {len(args)}")
    for a, s in zip(args, decl.arg_sorts):
        if a.sort is not s:
            raise ValueError(f"{decl.name}: arg {a!r} has sort {a.sort}, expected {s}")
    return Term(APP, decl.ret_sort, tuple(args), decl)


def Const(name: str, sort: Sort) -> Term:
    """A free constant — alias for :func:`Var` matching SMT-LIB vocabulary."""
    return Var(name, sort)


def Not(a: Term) -> Term:
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.kind == NOT:
        return a.args[0]
    return Term(NOT, BOOL, (a,))


def _flatten(kind: str, parts: Iterable[Term]) -> list[Term]:
    out: list[Term] = []
    for p in parts:
        if p.kind == kind:
            out.extend(p.args)
        else:
            out.append(p)
    return out


def And(*parts: Term) -> Term:
    flat = _flatten(AND, parts)
    kept: list[Term] = []
    seen = set()
    for p in flat:
        if p is FALSE:
            return FALSE
        if p is TRUE or p in seen:
            continue
        seen.add(p)
        kept.append(p)
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return Term(AND, BOOL, tuple(kept))


def Or(*parts: Term) -> Term:
    flat = _flatten(OR, parts)
    kept: list[Term] = []
    seen = set()
    for p in flat:
        if p is TRUE:
            return TRUE
        if p is FALSE or p in seen:
            continue
        seen.add(p)
        kept.append(p)
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    return Term(OR, BOOL, tuple(kept))


def Implies(a: Term, b: Term) -> Term:
    if a is TRUE:
        return b
    if a is FALSE or b is TRUE:
        return TRUE
    if b is FALSE:
        return Not(a)
    return Term(IMPLIES, BOOL, (a, b))


def Iff(a: Term, b: Term) -> Term:
    return Eq(a, b)


def Eq(a: Term, b: Term) -> Term:
    if a.sort is not b.sort:
        raise ValueError(f"sort mismatch in =: {a!r}:{a.sort} vs {b!r}:{b.sort}")
    if a is b:
        return TRUE
    if a.is_const() and b.is_const():
        return BoolVal(a.payload == b.payload)
    # Canonical argument order keeps the intern table small.
    if b._hash < a._hash:
        a, b = b, a
    return Term(EQ, BOOL, (a, b))


def Ne(a: Term, b: Term) -> Term:
    return Not(Eq(a, b))


def Distinct(*parts: Term) -> Term:
    if len(parts) <= 1:
        return TRUE
    if len(parts) == 2:
        return Ne(parts[0], parts[1])
    return Term(DISTINCT, BOOL, tuple(parts))


def Ite(c: Term, t: Term, e: Term) -> Term:
    if t.sort is not e.sort:
        raise ValueError("ite branches must share a sort")
    if c is TRUE:
        return t
    if c is FALSE:
        return e
    if t is e:
        return t
    if t.sort is BOOL:
        return And(Implies(c, t), Implies(Not(c), e))
    return Term(ITE, t.sort, (c, t, e))


# -- integer arithmetic ------------------------------------------------------


def _int_args(kind: str, parts: Sequence[Term]) -> None:
    for p in parts:
        if p.sort is not INT:
            raise ValueError(f"{kind}: expected Int, got {p!r}:{p.sort}")


def Add(*parts: Term) -> Term:
    _int_args(ADD, parts)
    flat = _flatten(ADD, parts)
    const = sum(p.payload for p in flat if p.kind == INT_CONST)
    rest = [p for p in flat if p.kind != INT_CONST]
    if const != 0 or not rest:
        rest.append(IntVal(const))
    if len(rest) == 1:
        return rest[0]
    return Term(ADD, INT, tuple(rest))


def Sub(a: Term, b: Term) -> Term:
    _int_args(SUB, (a, b))
    if a.kind == INT_CONST and b.kind == INT_CONST:
        return IntVal(a.payload - b.payload)
    if b.kind == INT_CONST and b.payload == 0:
        return a
    if a is b:
        return IntVal(0)
    return Term(SUB, INT, (a, b))


def Mul(a: Term, b: Term) -> Term:
    _int_args(MUL, (a, b))
    if a.kind == INT_CONST and b.kind == INT_CONST:
        return IntVal(a.payload * b.payload)
    if a.kind == INT_CONST and a.payload == 1:
        return b
    if b.kind == INT_CONST and b.payload == 1:
        return a
    if (a.kind == INT_CONST and a.payload == 0) or (b.kind == INT_CONST and b.payload == 0):
        return IntVal(0)
    if b._hash < a._hash:
        a, b = b, a
    return Term(MUL, INT, (a, b))


def Div(a: Term, b: Term) -> Term:
    """Euclidean integer division (SMT-LIB ``div``)."""
    _int_args(IDIV, (a, b))
    if a.kind == INT_CONST and b.kind == INT_CONST and b.payload != 0:
        q = a.payload // b.payload if b.payload > 0 else -(a.payload // -b.payload)
        return IntVal(q)
    return Term(IDIV, INT, (a, b))


def Mod(a: Term, b: Term) -> Term:
    """Euclidean remainder (SMT-LIB ``mod``; result in [0, |b|) )."""
    _int_args(IMOD, (a, b))
    if a.kind == INT_CONST and b.kind == INT_CONST and b.payload != 0:
        return IntVal(a.payload % abs(b.payload))
    return Term(IMOD, INT, (a, b))


def Neg(a: Term) -> Term:
    _int_args(NEG, (a,))
    if a.kind == INT_CONST:
        return IntVal(-a.payload)
    return Term(NEG, INT, (a,))


def Le(a: Term, b: Term) -> Term:
    _int_args(LE, (a, b))
    if a.kind == INT_CONST and b.kind == INT_CONST:
        return BoolVal(a.payload <= b.payload)
    if a is b:
        return TRUE
    return Term(LE, BOOL, (a, b))


def Lt(a: Term, b: Term) -> Term:
    _int_args(LT, (a, b))
    if a.kind == INT_CONST and b.kind == INT_CONST:
        return BoolVal(a.payload < b.payload)
    if a is b:
        return FALSE
    return Term(LT, BOOL, (a, b))


def Ge(a: Term, b: Term) -> Term:
    return Le(b, a)


def Gt(a: Term, b: Term) -> Term:
    return Lt(b, a)


# -- bit vectors -------------------------------------------------------------


def _bv_binop(kind: str, a: Term, b: Term, ret_bool: bool = False) -> Term:
    if not a.sort.is_bv() or a.sort is not b.sort:
        raise ValueError(f"{kind}: operands must share a BV sort")
    return Term(kind, BOOL if ret_bool else a.sort, (a, b))


def BvAnd(a: Term, b: Term) -> Term:
    return _bv_binop(BVAND, a, b)


def BvOr(a: Term, b: Term) -> Term:
    return _bv_binop(BVOR, a, b)


def BvXor(a: Term, b: Term) -> Term:
    return _bv_binop(BVXOR, a, b)


def BvNot(a: Term) -> Term:
    if not a.sort.is_bv():
        raise ValueError("bvnot: operand must be a BV")
    return Term(BVNOT, a.sort, (a,))


def BvAdd(a: Term, b: Term) -> Term:
    return _bv_binop(BVADD, a, b)


def BvSub(a: Term, b: Term) -> Term:
    return _bv_binop(BVSUB, a, b)


def BvMul(a: Term, b: Term) -> Term:
    return _bv_binop(BVMUL, a, b)


def BvUDiv(a: Term, b: Term) -> Term:
    return _bv_binop(BVUDIV, a, b)


def BvURem(a: Term, b: Term) -> Term:
    return _bv_binop(BVUREM, a, b)


def BvShl(a: Term, b: Term) -> Term:
    return _bv_binop(BVSHL, a, b)


def BvLshr(a: Term, b: Term) -> Term:
    return _bv_binop(BVLSHR, a, b)


def BvULe(a: Term, b: Term) -> Term:
    return _bv_binop(BVULE, a, b, ret_bool=True)


def BvULt(a: Term, b: Term) -> Term:
    return _bv_binop(BVULT, a, b, ret_bool=True)


# -- quantifiers -------------------------------------------------------------


def ForAll(bound: Sequence[Term], body: Term,
           triggers: Optional[Sequence[Sequence[Term]]] = None) -> Term:
    return _quant(FORALL, bound, body, triggers)


def Exists(bound: Sequence[Term], body: Term,
           triggers: Optional[Sequence[Sequence[Term]]] = None) -> Term:
    return _quant(EXISTS, bound, body, triggers)


def _quant(kind: str, bound, body: Term, triggers) -> Term:
    bound = tuple(bound)
    if not bound:
        return body
    for v in bound:
        if not v.is_var():
            raise ValueError(f"quantified variable must be a Var: {v!r}")
    if body.sort is not BOOL:
        raise ValueError("quantifier body must be Bool")
    trig = tuple(tuple(t) for t in triggers) if triggers else ()
    return Term(kind, BOOL, (body,), (bound, trig))


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def _scope_key(live: dict) -> tuple:
    return tuple(sorted(live.items(), key=lambda kv: kv[0]._hash))


def substitute(term: Term, mapping: dict) -> Term:
    """Capture-avoiding simultaneous substitution of free variables.

    ``mapping`` maps VAR terms to replacement terms of the same sort.  A
    binder that would capture a free variable of a replacement becomes
    the least ``name!k`` no free variable of the input holds, so the
    result depends only on the input.
    """
    if not mapping:
        return term
    cache: dict[tuple, Term] = {}

    def walk(t: Term, live: dict, live_key: tuple) -> Term:
        # A subterm none of whose free variables is substituted comes back
        # unchanged.
        if not live or t.free_vars().isdisjoint(live):
            return t
        key = (t, live_key)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if t.kind == VAR:
            result = live[t]
        elif t.is_quant():
            bound, pats = t.payload
            scope = {v: r for v, r in live.items() if v in t.free_vars()}
            frees = frozenset().union(*(r.free_vars() for r in scope.values()))
            if not frees.isdisjoint(bound):
                taken = {v.payload for v in frees.union(t.free_vars(), bound)}
                for v in bound:
                    if v in frees:
                        name = next(n for n in (f"{v.payload}!{k}"
                                                for k in count(1))
                                    if n not in taken)
                        taken.add(name)
                        scope[v] = Var(name, v.sort)
            skey = _scope_key(scope)
            result = _quant(t.kind, [scope.get(v, v) for v in bound],
                            walk(t.args[0], scope, skey),
                            [[walk(p, scope, skey) for p in grp]
                             for grp in pats])
        else:
            new_args = tuple(walk(a, live, live_key) for a in t.args)
            if new_args == t.args:
                result = t
            else:
                result = _rebuild(t, new_args)
        cache[key] = result
        return result

    return walk(term, mapping, _scope_key(mapping))


_REBUILDERS = {}


def _rebuild(t: Term, new_args: tuple) -> Term:
    """Rebuild a non-quantifier term with new children via smart constructors."""
    k = t.kind
    if k == APP:
        return App(t.payload, *new_args)
    if k == NOT:
        return Not(new_args[0])
    if k == AND:
        return And(*new_args)
    if k == OR:
        return Or(*new_args)
    if k == IMPLIES:
        return Implies(*new_args)
    if k == EQ:
        return Eq(*new_args)
    if k == DISTINCT:
        return Distinct(*new_args)
    if k == ITE:
        return Ite(*new_args)
    if k == ADD:
        return Add(*new_args)
    if k == SUB:
        return Sub(*new_args)
    if k == MUL:
        return Mul(*new_args)
    if k == IDIV:
        return Div(*new_args)
    if k == IMOD:
        return Mod(*new_args)
    if k == NEG:
        return Neg(new_args[0])
    if k == LE:
        return Le(*new_args)
    if k == LT:
        return Lt(*new_args)
    if k in BV_KINDS:
        if k in (BVULE, BVULT):
            return _bv_binop(k, new_args[0], new_args[1], ret_bool=True)
        if k == BVNOT:
            return BvNot(new_args[0])
        return _bv_binop(k, new_args[0], new_args[1])
    raise ValueError(f"cannot rebuild kind {k}")
