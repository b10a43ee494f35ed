"""AST of the verified language (the `verus!{}` surface, embedded in Python).

Expressions support operator overloading so specs read naturally:

    requires=[self_.view().length() > 0]
    ensures=[result() == old("self").view().index(0)]

Statement and function nodes are plain data; the WP engine
(:mod:`repro.vc.wp`) gives them meaning.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from . import types as VT

# Function modes, mirroring Verus.
SPEC = "spec"
PROOF = "proof"
EXEC = "exec"

# `by(...)` proof strategies for assertions (§3.3).
BY_BIT_VECTOR = "bit_vector"
BY_NONLINEAR = "nonlinear_arith"
BY_INTEGER_RING = "integer_ring"
BY_COMPUTE = "compute"


class Span:
    """Source provenance of an AST node (where the builder was called).

    Captured by the :mod:`repro.lang` statement/function helpers and
    threaded onto obligations by :class:`repro.vc.wp.VcGen`, so failure
    diagnostics can point back at the build site — the role Verus error
    spans play in Fig 8's failure-localization story.
    """

    __slots__ = ("file", "line")

    def __init__(self, file: str, line: int):
        self.file = file
        self.line = line

    def __str__(self) -> str:
        import os
        return f"{os.path.basename(self.file)}:{self.line}"

    def __repr__(self) -> str:
        return f"<Span {self}>"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Span)
                and other.file == self.file and other.line == self.line)

    def __hash__(self) -> int:
        return hash((self.file, self.line))

    def to_dict(self) -> dict:
        return {"file": self.file, "line": self.line}

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> Optional["Span"]:
        if not isinstance(d, dict) or "file" not in d:
            return None
        return cls(d["file"], int(d.get("line", 0)))


class Expr:
    """Base expression; overloads build new expressions."""

    vtype: VT.VType
    # Source provenance, when the lang helpers captured one.
    span: Optional[Span] = None

    # -- operator sugar ------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            return other
        if isinstance(other, bool):
            return Lit(other, VT.BOOL)
        if isinstance(other, int):
            return Lit(other, VT.INT)
        raise TypeError(f"cannot use {other!r} in a verified expression")

    def __add__(self, other):
        return BinOp("+", self, self._coerce(other))

    def __radd__(self, other):
        return BinOp("+", self._coerce(other), self)

    def __sub__(self, other):
        return BinOp("-", self, self._coerce(other))

    def __rsub__(self, other):
        return BinOp("-", self._coerce(other), self)

    def __mul__(self, other):
        return BinOp("*", self, self._coerce(other))

    def __rmul__(self, other):
        return BinOp("*", self._coerce(other), self)

    def __floordiv__(self, other):
        return BinOp("/", self, self._coerce(other))

    def __mod__(self, other):
        return BinOp("%", self, self._coerce(other))

    def __and__(self, other):
        return BinOp("&", self, self._coerce(other))

    def __or__(self, other):
        return BinOp("|", self, self._coerce(other))

    def __xor__(self, other):
        return BinOp("^", self, self._coerce(other))

    def __lshift__(self, other):
        return BinOp("<<", self, self._coerce(other))

    def __rshift__(self, other):
        return BinOp(">>", self, self._coerce(other))

    def __lt__(self, other):
        return BinOp("<", self, self._coerce(other))

    def __le__(self, other):
        return BinOp("<=", self, self._coerce(other))

    def __gt__(self, other):
        return BinOp(">", self, self._coerce(other))

    def __ge__(self, other):
        return BinOp(">=", self, self._coerce(other))

    def eq(self, other):
        return BinOp("==", self, self._coerce(other))

    def ne(self, other):
        return BinOp("!=", self, self._coerce(other))

    def implies(self, other):
        return BinOp("==>", self, self._coerce(other))

    def and_(self, other):
        return BinOp("&&", self, self._coerce(other))

    def or_(self, other):
        return BinOp("||", self, self._coerce(other))

    def not_(self):
        return UnOp("!", self)

    def neg(self):
        return UnOp("-", self)

    # -- collection / struct sugar -------------------------------------------

    def field(self, name: str) -> "FieldGet":
        return FieldGet(self, name)

    def length(self) -> "SeqLen":
        return SeqLen(self)

    def index(self, i) -> "SeqIndex":
        return SeqIndex(self, self._coerce(i))

    def update(self, i, v) -> "SeqUpdate":
        return SeqUpdate(self, self._coerce(i), self._coerce(v))

    def skip(self, n) -> "SeqSkip":
        return SeqSkip(self, self._coerce(n))

    def take(self, n) -> "SeqTake":
        return SeqTake(self, self._coerce(n))

    def push(self, v) -> "SeqConcat":
        return SeqConcat(self, SeqLit(self.vtype.elem, [self._coerce(v)]))

    def concat(self, other) -> "SeqConcat":
        return SeqConcat(self, self._coerce(other))

    def contains_key(self, k) -> "MapHas":
        return MapHas(self, self._coerce(k))

    def map_index(self, k) -> "MapGet":
        return MapGet(self, self._coerce(k))

    def insert(self, k, v) -> "MapInsert":
        return MapInsert(self, self._coerce(k), self._coerce(v))

    def remove(self, k) -> "MapRemove":
        return MapRemove(self, self._coerce(k))

    def is_variant(self, variant: str) -> "IsVariant":
        return IsVariant(self, variant)

    def get(self, variant: str, field: str) -> "VariantGet":
        return VariantGet(self, variant, field)


def coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Lit(value, VT.BOOL)
    if isinstance(value, int):
        return Lit(value, VT.INT)
    raise TypeError(f"cannot coerce {value!r} to a verified expression")


class Lit(Expr):
    def __init__(self, value: Union[int, bool], vtype: VT.VType):
        self.value = value
        self.vtype = vtype


class VarE(Expr):
    def __init__(self, name: str, vtype: VT.VType):
        self.name = name
        self.vtype = vtype


class Old(Expr):
    """old(x): parameter value at function entry (for &mut params)."""

    def __init__(self, name: str, vtype: VT.VType):
        self.name = name
        self.vtype = vtype


_INT_OPS = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}
_CMP_OPS = {"<", "<=", ">", ">="}
_BOOL_OPS = {"&&", "||", "==>", "<==>"}


class BinOp(Expr):
    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        if op in _INT_OPS:
            self.vtype = lhs.vtype
        elif op in _CMP_OPS or op in _BOOL_OPS or op in ("==", "!=", "=~="):
            self.vtype = VT.BOOL
        else:
            raise ValueError(f"unknown binary operator {op!r}")


class UnOp(Expr):
    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand
        self.vtype = VT.BOOL if op == "!" else operand.vtype


class IteE(Expr):
    def __init__(self, cond: Expr, then: Expr, els: Expr):
        self.cond = cond
        self.then = then
        self.els = els
        self.vtype = then.vtype


class Call(Expr):
    """Call of a spec/exec function by name (resolved in the module)."""

    def __init__(self, fn_name: str, args: Sequence[Expr], vtype: VT.VType):
        self.fn_name = fn_name
        self.args = [coerce(a) for a in args]
        self.vtype = vtype


class FieldGet(Expr):
    def __init__(self, base: Expr, field: str):
        if not isinstance(base.vtype, VT.StructType):
            raise TypeError(f"field access on non-struct {base.vtype.name}")
        self.base = base
        self.fieldname = field
        self.vtype = base.vtype.field_type(field)


class StructLit(Expr):
    def __init__(self, vtype: VT.StructType, fields: dict):
        missing = set(vtype.fields) - set(fields)
        extra = set(fields) - set(vtype.fields)
        if missing or extra:
            raise TypeError(f"struct {vtype.name}: missing {missing}, "
                            f"extra {extra}")
        self.vtype = vtype
        self.fields = {k: coerce(v) for k, v in fields.items()}


class StructUpdate(Expr):
    """Functional record update: `S { base with field: value }`."""

    def __init__(self, base: Expr, updates: dict):
        self.base = base
        self.updates = {k: coerce(v) for k, v in updates.items()}
        self.vtype = base.vtype
        for k in updates:
            base.vtype.field_type(k)  # raises for unknown fields


class EnumLit(Expr):
    def __init__(self, vtype: VT.EnumType, variant: str, fields: dict):
        self.vtype = vtype
        self.variant = variant
        expected = vtype.variant_fields(variant)
        if set(expected) != set(fields):
            raise TypeError(f"enum {vtype.name}::{variant}: fields mismatch")
        self.fields = {k: coerce(v) for k, v in fields.items()}


class IsVariant(Expr):
    def __init__(self, base: Expr, variant: str):
        base.vtype.variant_fields(variant)  # type check
        self.base = base
        self.variant = variant
        self.vtype = VT.BOOL


class VariantGet(Expr):
    def __init__(self, base: Expr, variant: str, field: str):
        fields = base.vtype.variant_fields(variant)
        self.base = base
        self.variant = variant
        self.fieldname = field
        self.vtype = fields[field]


# -- Seq operations -----------------------------------------------------------


class SeqLit(Expr):
    def __init__(self, elem: VT.VType, items: Sequence[Expr]):
        self.items = [coerce(i) for i in items]
        self.vtype = VT.SeqType(elem)


class SeqLen(Expr):
    def __init__(self, seq: Expr):
        self.seq = seq
        self.vtype = VT.INT


class SeqIndex(Expr):
    def __init__(self, seq: Expr, idx: Expr):
        self.seq = seq
        self.idx = idx
        self.vtype = seq.vtype.elem


class SeqUpdate(Expr):
    def __init__(self, seq: Expr, idx: Expr, value: Expr):
        self.seq = seq
        self.idx = idx
        self.value = value
        self.vtype = seq.vtype


class SeqConcat(Expr):
    def __init__(self, lhs: Expr, rhs: Expr):
        self.lhs = lhs
        self.rhs = rhs
        self.vtype = lhs.vtype


class SeqSkip(Expr):
    def __init__(self, seq: Expr, n: Expr):
        self.seq = seq
        self.n = n
        self.vtype = seq.vtype


class SeqTake(Expr):
    def __init__(self, seq: Expr, n: Expr):
        self.seq = seq
        self.n = n
        self.vtype = seq.vtype


# -- Map operations -------------------------------------------------------------


class MapEmpty(Expr):
    def __init__(self, vtype: VT.MapType):
        self.vtype = vtype


class MapHas(Expr):
    def __init__(self, m: Expr, key: Expr):
        self.m = m
        self.key = key
        self.vtype = VT.BOOL


class MapGet(Expr):
    def __init__(self, m: Expr, key: Expr):
        self.m = m
        self.key = key
        self.vtype = m.vtype.value


class MapInsert(Expr):
    def __init__(self, m: Expr, key: Expr, value: Expr):
        self.m = m
        self.key = key
        self.value = value
        self.vtype = m.vtype


class MapRemove(Expr):
    def __init__(self, m: Expr, key: Expr):
        self.m = m
        self.key = key
        self.vtype = m.vtype


# -- quantifiers ------------------------------------------------------------------


class ForAllE(Expr):
    def __init__(self, bound: Sequence[tuple[str, VT.VType]], body: Expr,
                 triggers: Optional[Sequence[Sequence[Expr]]] = None):
        self.bound = list(bound)
        self.body = body
        self.triggers = [list(g) for g in triggers] if triggers else None
        self.vtype = VT.BOOL


class ExistsE(Expr):
    def __init__(self, bound: Sequence[tuple[str, VT.VType]], body: Expr,
                 triggers: Optional[Sequence[Sequence[Expr]]] = None):
        self.bound = list(bound)
        self.body = body
        self.triggers = [list(g) for g in triggers] if triggers else None
        self.vtype = VT.BOOL


class LetE(Expr):
    def __init__(self, name: str, value: Expr, body: Expr):
        self.name = name
        self.value = value
        self.body = body
        self.vtype = body.vtype


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    span: Optional[Span] = None


class SLet(Stmt):
    """let name = expr; introduces (or shadows) a local."""

    def __init__(self, name: str, expr: Expr):
        self.name = name
        self.expr = expr


class SAssign(Stmt):
    """name = expr; assignment to an existing local or &mut parameter."""

    def __init__(self, name: str, expr: Expr):
        self.name = name
        self.expr = expr


class SIf(Stmt):
    def __init__(self, cond: Expr, then: Sequence[Stmt],
                 els: Sequence[Stmt] = ()):
        self.cond = cond
        self.then = list(then)
        self.els = list(els)


class SWhile(Stmt):
    def __init__(self, cond: Expr, invariants: Sequence[Expr],
                 body: Sequence[Stmt], decreases: Optional[Expr] = None):
        self.cond = cond
        self.invariants = list(invariants)
        self.body = list(body)
        self.decreases = decreases


class SAssert(Stmt):
    """assert(expr) [by(strategy)] — a checked proof obligation.

    ``by_premises``: for by(nonlinear_arith)/by(integer_ring), the explicit
    premises forwarded into the isolated query (§3.3 'no implicit context').
    """

    def __init__(self, expr: Expr, by: Optional[str] = None,
                 by_premises: Sequence[Expr] = (), label: str = ""):
        self.expr = expr
        self.by = by
        self.by_premises = list(by_premises)
        self.label = label


class SAssume(Stmt):
    """assume(expr) — trusted; used by trusted specs and test harnesses."""

    def __init__(self, expr: Expr):
        self.expr = expr


class SCall(Stmt):
    """Call an exec/proof function for effect: results bound to names.

    ``mut_args`` lists argument *names* passed as `&mut` (updated in place).
    """

    def __init__(self, fn_name: str, args: Sequence[Expr],
                 binds: Sequence[str] = (), mut_args: Sequence[str] = ()):
        self.fn_name = fn_name
        self.args = [coerce(a) for a in args]
        self.binds = list(binds)
        self.mut_args = list(mut_args)


class SReturn(Stmt):
    def __init__(self, expr: Optional[Expr] = None):
        self.expr = expr


# ---------------------------------------------------------------------------
# Walking (the one traversal the planner, the analysis passes and the
# EPR check share)
# ---------------------------------------------------------------------------


def walk_expr(e: Expr):
    """Iterate all sub-expressions of an AST expression (including e)."""
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        for attr in ("lhs", "rhs", "operand", "cond", "then", "els", "base",
                     "seq", "idx", "value", "n", "m", "key", "body"):
            child = getattr(cur, attr, None)
            if isinstance(child, Expr):
                stack.append(child)
        for attr in ("args", "items"):
            children = getattr(cur, attr, None)
            if children:
                stack.extend(c for c in children if isinstance(c, Expr))
        for attr in ("fields", "updates"):
            mapping = getattr(cur, attr, None)
            if isinstance(mapping, dict):
                stack.extend(v for v in mapping.values()
                             if isinstance(v, Expr))


def walk_stmts(body):
    """Iterate all statements of a function body, nested blocks included,
    in source order: an ``if``'s then-block and else-block, or a loop's
    body, come before the statement after it.  An expression body (spec
    function) has no statements."""
    if body is None or isinstance(body, Expr):
        return
    stack = list(body)[::-1]
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, SIf):
            stack.extend(list(stmt.els)[::-1] + list(stmt.then)[::-1])
        elif isinstance(stmt, SWhile):
            stack.extend(list(stmt.body)[::-1])


def stmt_exprs(stmt: Stmt):
    """The expressions a statement holds directly (not its nested blocks)."""
    for attr in ("expr", "cond", "decreases"):
        e = getattr(stmt, attr, None)
        if isinstance(e, Expr):
            yield e
    for attr in ("invariants", "args", "by_premises"):
        es = getattr(stmt, attr, None)
        if es:
            yield from (e for e in es if isinstance(e, Expr))


# ---------------------------------------------------------------------------
# Functions and modules
# ---------------------------------------------------------------------------


class Param:
    def __init__(self, name: str, vtype: VT.VType, mutable: bool = False):
        self.name = name
        self.vtype = vtype
        self.mutable = mutable  # &mut: callers observe the updated value


class Function:
    """A spec, proof, or exec function."""

    span: Optional[Span] = None

    def __init__(self, name: str, mode: str,
                 params: Sequence[Param],
                 ret: Optional[tuple[str, VT.VType]] = None,
                 requires: Sequence[Expr] = (),
                 ensures: Sequence[Expr] = (),
                 decreases: Optional[Expr] = None,
                 body: Optional[Union[Expr, Sequence[Stmt]]] = None,
                 attrs: Optional[dict] = None):
        self.name = name
        self.mode = mode
        self.params = list(params)
        self.ret = ret
        self.requires = list(requires)
        self.ensures = list(ensures)
        self.decreases = decreases
        self.body = body
        self.attrs = attrs or {}

    @property
    def is_spec(self):
        return self.mode == SPEC

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"{self.name}: no parameter {name!r}")


class Module:
    """A verification module: types + functions + imports.

    Modules are the pruning granularity (§3.1) and the `#[epr_mode]`
    granularity (§3.2).
    """

    def __init__(self, name: str, epr_mode: bool = False,
                 attrs: Optional[dict] = None):
        self.name = name
        self.functions: dict[str, Function] = {}
        self.datatypes: list[VT.VType] = []
        self.imports: list["Module"] = []
        self.epr_mode = epr_mode
        self.attrs = attrs or {}

    def attrs_get(self, key: str, default=None):
        return self.attrs.get(key, default)

    def add(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name} in {self.name}")
        self.functions[fn.name] = fn
        return fn

    def datatype(self, t: VT.VType) -> VT.VType:
        self.datatypes.append(t)
        return t

    def import_module(self, other: "Module") -> None:
        self.imports.append(other)

    def lookup(self, fn_name: str) -> Function:
        fn = self.functions.get(fn_name)
        if fn is not None:
            return fn
        for imp in self.imports:
            try:
                return imp.lookup(fn_name)
            except KeyError:
                continue
        raise KeyError(f"function {fn_name!r} not found from {self.name}")

    def all_functions(self) -> dict[str, Function]:
        out: dict[str, Function] = {}
        for imp in self.imports:
            out.update(imp.all_functions())
        out.update(self.functions)
        return out
