"""Abstract domains for the static proving tier.

Three classic numeric domains and their reduced product:

* :class:`Interval` — ``[lo, hi]`` with optionally-infinite endpoints,
* :class:`Const` — the flat constant-propagation lattice,
* :class:`Congruence` — ``v ≡ r (mod m)`` (parity is the ``m == 2`` case),

combined into :class:`Val`, whose :func:`reduce` step lets each component
sharpen the others (a constant pins the interval, a singleton interval
becomes a constant, a congruence snaps interval endpoints inward).

All transfer functions follow the *Euclidean* division/remainder
semantics of the SMT-LIB ``div``/``mod`` the solver implements (and
:mod:`repro.smt.compute` evaluates) — ``a mod b`` lands in
``[0, |b|)`` — so abstract and concrete evaluation agree and can be
differentially tested.

Soundness convention: every operation over-approximates.  ``None`` as an
interval endpoint means unbounded; a ``Val`` with any bottom component is
bottom (unreachable), which entails everything.
"""

from __future__ import annotations

from math import gcd
from typing import Optional


def _min_opt(*xs):
    """Min over endpoints where None means -inf."""
    if any(x is None for x in xs):
        return None
    return min(xs)


def _max_opt(*xs):
    """Max over endpoints where None means +inf."""
    if any(x is None for x in xs):
        return None
    return max(xs)


def euc_div(a: int, b: int) -> int:
    """Euclidean division, matching SMT-LIB ``div`` and ``vc.interp``."""
    return a // b if b > 0 else -(a // -b)


def euc_mod(a: int, b: int) -> int:
    """Euclidean remainder, matching SMT-LIB ``mod``: result in [0, |b|)."""
    return a % abs(b)


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------


class Interval:
    """``[lo, hi]`` over the integers; ``None`` = unbounded on that side.

    The empty interval is canonicalized to ``(0, -1)``.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Optional[int] = None, hi: Optional[int] = None):
        if lo is not None and hi is not None and lo > hi:
            lo, hi = 0, -1  # canonical empty
        self.lo = lo
        self.hi = hi

    # -- structure ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    def as_const(self) -> Optional[int]:
        if self.lo is not None and self.lo == self.hi:
            return self.lo
        return None

    def contains(self, v: int) -> bool:
        return ((self.lo is None or self.lo <= v)
                and (self.hi is None or v <= self.hi))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Interval)
                and (self.is_empty and other.is_empty
                     or (self.lo, self.hi) == (other.lo, other.hi)))

    def __hash__(self) -> int:
        return hash((0, -1) if self.is_empty else (self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_empty:
            return "[empty]"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"

    # -- lattice ------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(_min_opt(self.lo, other.lo),
                        _max_opt(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        lo = self.lo if other.lo is None else \
            (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else \
            (other.hi if self.hi is None else min(self.hi, other.hi))
        return Interval(lo, hi)

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        lo = None if self.lo is None or other.lo is None \
            else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None \
            else self.hi + other.hi
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def neg(self) -> "Interval":
        if self.is_empty:
            return EMPTY_INTERVAL
        return Interval(None if self.hi is None else -self.hi,
                        None if self.lo is None else -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        INF = float("inf")
        a_lo = -INF if self.lo is None else self.lo
        a_hi = INF if self.hi is None else self.hi
        b_lo = -INF if other.lo is None else other.lo
        b_hi = INF if other.hi is None else other.hi

        def prod(x, y):
            if x == 0 or y == 0:
                return 0  # avoids 0 * inf = nan
            return x * y

        corners = [prod(a_lo, b_lo), prod(a_lo, b_hi),
                   prod(a_hi, b_lo), prod(a_hi, b_hi)]
        lo, hi = min(corners), max(corners)
        return Interval(None if lo == -INF else int(lo),
                        None if hi == INF else int(hi))

    def div(self, other: "Interval") -> "Interval":
        """Euclidean division; top unless the divisor's sign is fixed."""
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        if other.lo is not None and other.lo >= 1:
            # Positive divisor: floor(a/b) is monotone in a; extremes in b
            # are at b = other.lo or the b -> inf limit (0 or -1).
            lo = hi = None
            if self.lo is not None:
                cands = [euc_div(self.lo, other.lo)]
                cands.append(euc_div(self.lo, other.hi)
                             if other.hi is not None
                             else (0 if self.lo >= 0 else -1))
                lo = min(cands)
            if self.hi is not None:
                cands = [euc_div(self.hi, other.lo)]
                cands.append(euc_div(self.hi, other.hi)
                             if other.hi is not None
                             else (0 if self.hi >= 0 else -1))
                hi = max(cands)
            return Interval(lo, hi)
        if (other.hi is not None and other.hi <= -1
                and other.lo is not None):
            # Bounded negative divisor: dividing by -b flips the sign.
            return self.div(other.neg()).neg()
        return TOP_INTERVAL

    def mod(self, other: "Interval") -> "Interval":
        """Euclidean remainder; top unless the divisor excludes 0.

        The solver's divmod axioms are guarded by ``b >= 1`` /
        ``b <= -1``, so mod-by-zero is a fully uninterpreted value —
        any divisor interval straddling 0 constrains nothing (mirrors
        :meth:`div`).  When the sign is fixed, ``a mod b`` lands in
        ``[0, max|b| - 1]``.
        """
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        if other.lo is not None and other.lo >= 1:
            # a mod b == a when 0 <= a < b is guaranteed.
            if (self.lo is not None and self.lo >= 0
                    and self.hi is not None and self.hi < other.lo):
                return self
            if other.hi is None:
                return Interval(0, None)
            return Interval(0, other.hi - 1)
        if other.hi is not None and other.hi <= -1:
            if other.lo is None:
                return Interval(0, None)
            return Interval(0, -other.lo - 1)
        return TOP_INTERVAL


TOP_INTERVAL = Interval()
EMPTY_INTERVAL = Interval(0, -1)


# ---------------------------------------------------------------------------
# Constant-propagation domain (flat lattice)
# ---------------------------------------------------------------------------


class Const:
    """Flat lattice: bottom < every concrete value < top."""

    __slots__ = ("state", "value")

    def __init__(self, state: str, value=None):
        self.state = state  # "bot" | "top" | "val"
        self.value = value

    @classmethod
    def of(cls, value) -> "Const":
        return cls("val", value)

    @property
    def is_bottom(self) -> bool:
        return self.state == "bot"

    @property
    def is_top(self) -> bool:
        return self.state == "top"

    def as_const(self):
        return self.value if self.state == "val" else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Const) and self.state == other.state
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.state, self.value))

    def __repr__(self) -> str:
        return {"bot": "⊥", "top": "⊤"}.get(self.state, repr(self.value))

    def join(self, other: "Const") -> "Const":
        if self.state == "bot":
            return other
        if other.state == "bot":
            return self
        if (self.state == "val" and other.state == "val"
                and self.value == other.value):
            return self
        return CONST_TOP

    def meet(self, other: "Const") -> "Const":
        if self.state == "top":
            return other
        if other.state == "top":
            return self
        if (self.state == "val" and other.state == "val"
                and self.value == other.value):
            return self
        return CONST_BOT


CONST_TOP = Const("top")
CONST_BOT = Const("bot")


# ---------------------------------------------------------------------------
# Congruence domain  (v ≡ res  mod  mod)
# ---------------------------------------------------------------------------


class Congruence:
    """``v ≡ res (mod mod)``; ``mod == 0`` pins the exact constant ``res``,
    ``mod == 1`` is top.  Parity is the ``mod == 2`` fragment."""

    __slots__ = ("mod", "res")

    def __init__(self, mod: Optional[int], res: int = 0):
        # mod None encodes bottom.
        if mod is not None and mod >= 1:
            res = res % mod
        self.mod = mod
        self.res = res

    @classmethod
    def of(cls, value: int) -> "Congruence":
        return cls(0, value)

    @property
    def is_bottom(self) -> bool:
        return self.mod is None

    @property
    def is_top(self) -> bool:
        return self.mod == 1

    def as_const(self) -> Optional[int]:
        return self.res if self.mod == 0 else None

    def contains(self, v: int) -> bool:
        if self.mod is None:
            return False
        if self.mod == 0:
            return v == self.res
        return v % self.mod == self.res

    def __eq__(self, other) -> bool:
        return (isinstance(other, Congruence)
                and (self.mod, self.res) == (other.mod, other.res))

    def __hash__(self) -> int:
        return hash((self.mod, self.res))

    def __repr__(self) -> str:
        if self.mod is None:
            return "⊥"
        if self.mod == 0:
            return f"={self.res}"
        if self.mod == 1:
            return "⊤"
        return f"≡{self.res} (mod {self.mod})"

    def join(self, other: "Congruence") -> "Congruence":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        g = gcd(self.mod, other.mod, abs(self.res - other.res))
        if g == 0:
            return self  # equal constants
        return Congruence(g, self.res)

    def meet(self, other: "Congruence") -> "Congruence":
        if self.is_bottom or other.is_bottom:
            return CONG_BOT
        if self.mod == 0:
            return self if other.contains(self.res) else CONG_BOT
        if other.mod == 0:
            return other if self.contains(other.res) else CONG_BOT
        g = gcd(self.mod, other.mod)
        if (self.res - other.res) % g != 0:
            return CONG_BOT
        lcm = self.mod // g * other.mod
        # CRT: r ≡ self.res (mod self.mod), r ≡ other.res (mod other.mod).
        m2g = other.mod // g
        t = ((other.res - self.res) // g * pow(self.mod // g, -1, m2g)) % m2g
        return Congruence(lcm, self.res + self.mod * t)

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "Congruence") -> "Congruence":
        if self.is_bottom or other.is_bottom:
            return CONG_BOT
        return Congruence(gcd(self.mod, other.mod), self.res + other.res)

    def sub(self, other: "Congruence") -> "Congruence":
        return self.add(other.neg())

    def neg(self) -> "Congruence":
        if self.is_bottom:
            return CONG_BOT
        return Congruence(self.mod, -self.res)

    def mul(self, other: "Congruence") -> "Congruence":
        if self.is_bottom or other.is_bottom:
            return CONG_BOT
        m = gcd(self.mod * other.mod, self.mod * other.res,
                other.mod * self.res)
        return Congruence(m, self.res * other.res)

    def mod_by(self, other: "Congruence") -> "Congruence":
        """Euclidean ``self mod other`` when the divisor is a constant."""
        if self.is_bottom or other.is_bottom:
            return CONG_BOT
        k = other.as_const()
        if k is None or k == 0:
            return CONG_TOP
        k = abs(k)
        if self.mod == 0:
            return Congruence.of(euc_mod(self.res, k))
        g = gcd(self.mod, k)
        # v = res + t*mod, so v mod k ≡ res (mod gcd(mod, k)).
        return Congruence(g, self.res) if g > 1 else CONG_TOP

    def div_by(self, other: "Congruence") -> "Congruence":
        """Euclidean ``self div other`` for exact constant divisors."""
        if self.is_bottom or other.is_bottom:
            return CONG_BOT
        k = other.as_const()
        if k is None or k == 0:
            return CONG_TOP
        if self.mod == 0:
            return Congruence.of(euc_div(self.res, k))
        if k > 0 and self.mod % k == 0 and self.res % k == 0:
            # k divides every concretization: division is exact.
            return Congruence(self.mod // k, self.res // k)
        return CONG_TOP


CONG_TOP = Congruence(1)
CONG_BOT = Congruence(None)


# ---------------------------------------------------------------------------
# Reduced product
# ---------------------------------------------------------------------------


class Val:
    """Reduced product of interval × constant × congruence.

    Booleans ride the constant component only.  A bottom anywhere makes
    the whole value bottom (the state is unreachable).
    """

    __slots__ = ("itv", "cst", "cong")

    def __init__(self, itv: Interval = TOP_INTERVAL,
                 cst: Const = CONST_TOP,
                 cong: Congruence = CONG_TOP):
        self.itv = itv
        self.cst = cst
        self.cong = cong

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, v) -> "Val":
        if isinstance(v, bool):
            return TRUE_VAL if v else FALSE_VAL
        return cls(Interval(v, v), Const.of(v), Congruence.of(v))

    @classmethod
    def range(cls, lo: Optional[int], hi: Optional[int]) -> "Val":
        return cls(Interval(lo, hi)).reduce()

    @classmethod
    def bool3(cls, t: Optional[bool]) -> "Val":
        if t is None:
            return TOP_VAL
        return cls.const(t)

    # -- structure ----------------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return (self.itv.is_empty or self.cst.is_bottom
                or self.cong.is_bottom)

    def as_const(self):
        return self.cst.as_const()

    def truth(self) -> Optional[bool]:
        """Three-valued boolean reading: True / False / unknown (None)."""
        c = self.cst.as_const()
        return c if isinstance(c, bool) else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Val):
            return NotImplemented
        if self.is_bottom and other.is_bottom:
            return True
        return (self.itv == other.itv and self.cst == other.cst
                and self.cong == other.cong)

    def __hash__(self) -> int:
        if self.is_bottom:
            return hash("bot-val")
        return hash((self.itv, self.cst, self.cong))

    def __repr__(self) -> str:
        if self.is_bottom:
            return "⊥"
        return f"Val({self.itv!r}, {self.cst!r}, {self.cong!r})"

    # -- reduction ----------------------------------------------------------

    def reduce(self) -> "Val":
        """Let the components sharpen each other (the *reduced* product)."""
        if self.is_bottom:
            return BOT_VAL
        itv, cst, cong = self.itv, self.cst, self.cong
        c = cst.as_const()
        if isinstance(c, bool):
            return self  # boolean: the other components carry nothing
        if c is None:
            c = itv.as_const()
        if c is None:
            c = cong.as_const()
        if c is not None:
            itv = itv.meet(Interval(c, c))
            cst = cst.meet(Const.of(c))
            cong = cong.meet(Congruence.of(c))
            if itv.is_empty or cst.is_bottom or cong.is_bottom:
                return BOT_VAL
            return Val(itv, cst, cong)
        # Congruence snaps finite interval endpoints inward.
        if cong.mod is not None and cong.mod >= 2 and not itv.is_top:
            lo, hi = itv.lo, itv.hi
            if lo is not None:
                lo = lo + (cong.res - lo) % cong.mod
            if hi is not None:
                hi = hi - (hi - cong.res) % cong.mod
            itv = itv.meet(Interval(lo, hi))
            if itv.is_empty:
                return BOT_VAL
            if itv.as_const() is not None:
                return Val(itv, cst, cong).reduce()
        return Val(itv, cst, cong)

    # -- lattice ------------------------------------------------------------

    def join(self, other: "Val") -> "Val":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Val(self.itv.join(other.itv), self.cst.join(other.cst),
                   self.cong.join(other.cong))

    def meet(self, other: "Val") -> "Val":
        v = Val(self.itv.meet(other.itv), self.cst.meet(other.cst),
                self.cong.meet(other.cong))
        return v.reduce()

    # -- arithmetic ---------------------------------------------------------

    def _binop(self, other: "Val", itv_op, cong_op, fold) -> "Val":
        if self.is_bottom or other.is_bottom:
            return BOT_VAL
        a, b = self.as_const(), other.as_const()
        cst = CONST_TOP
        if a is not None and b is not None:
            folded = fold(a, b)
            if folded is None:
                return TOP_VAL  # undefined (division by zero)
            cst = Const.of(folded)
        return Val(itv_op(self.itv, other.itv),
                   cst,
                   cong_op(self.cong, other.cong)).reduce()

    def add(self, other: "Val") -> "Val":
        return self._binop(other, Interval.add, Congruence.add,
                           lambda a, b: a + b)

    def sub(self, other: "Val") -> "Val":
        return self._binop(other, Interval.sub, Congruence.sub,
                           lambda a, b: a - b)

    def mul(self, other: "Val") -> "Val":
        return self._binop(other, Interval.mul, Congruence.mul,
                           lambda a, b: a * b)

    def div(self, other: "Val") -> "Val":
        return self._binop(other, Interval.div, Congruence.div_by,
                           lambda a, b: euc_div(a, b) if b != 0 else None)

    def mod(self, other: "Val") -> "Val":
        return self._binop(other, Interval.mod, Congruence.mod_by,
                           lambda a, b: euc_mod(a, b) if b != 0 else None)

    def neg(self) -> "Val":
        if self.is_bottom:
            return BOT_VAL
        return Val(self.itv.neg(), CONST_TOP if self.as_const() is None
                   else Const.of(-self.as_const()), self.cong.neg()).reduce()


TOP_VAL = Val()
BOT_VAL = Val(EMPTY_INTERVAL, CONST_BOT, CONG_BOT)
TRUE_VAL = Val(TOP_INTERVAL, Const.of(True), CONG_TOP)
FALSE_VAL = Val(TOP_INTERVAL, Const.of(False), CONG_TOP)


# ---------------------------------------------------------------------------
# Abstract comparisons (three-valued)
# ---------------------------------------------------------------------------


def cmp_le(a: Val, b: Val) -> Optional[bool]:
    """``a <= b``: True / False when decided by the intervals, else None."""
    if a.is_bottom or b.is_bottom:
        return True  # vacuous: no concrete state reaches the comparison
    if (a.itv.hi is not None and b.itv.lo is not None
            and a.itv.hi <= b.itv.lo):
        return True
    if (a.itv.lo is not None and b.itv.hi is not None
            and a.itv.lo > b.itv.hi):
        return False
    return None


def cmp_lt(a: Val, b: Val) -> Optional[bool]:
    if a.is_bottom or b.is_bottom:
        return True
    if (a.itv.hi is not None and b.itv.lo is not None
            and a.itv.hi < b.itv.lo):
        return True
    if (a.itv.lo is not None and b.itv.hi is not None
            and a.itv.lo >= b.itv.hi):
        return False
    return None


def cmp_eq(a: Val, b: Val) -> Optional[bool]:
    if a.is_bottom or b.is_bottom:
        return True
    ac, bc = a.as_const(), b.as_const()
    if ac is not None and bc is not None:
        return ac == bc
    if a.meet(b).is_bottom:
        return False  # disjoint intervals or incompatible congruences
    return None
