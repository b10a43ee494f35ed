"""Bit-vector decision procedure by bit-blasting to the CDCL SAT solver.

This is the engine behind Verus's ``assert(...) by (bit_vector)``: the
assertion is translated into a pure bit-vector formula (integers reinterpreted
as fixed-width vectors), negated, blasted to CNF, and refuted.  Per §3.3 of
the paper the query is *isolated* — no ambient context leaks in, which is
exactly what makes these proofs stable.

Supported operations: bvand/or/xor/not, bvadd/sub/mul, bvudiv/urem (via the
multiplication relation), bvshl/lshr (constant rewiring or barrel shifter),
bvule/ult, equality, and full boolean structure.
"""

from __future__ import annotations

from typing import Optional

from . import terms as T
from .sat import SatSolver, lit, neg


class BitBlaster:
    """Translate a BV/bool formula into CNF over a SatSolver.

    The primitive gates (``gate_and``, ``gate_xor``, ``gate_ite``) fold
    and hash: a gate whose output is determined by constant, equal or
    complementary inputs returns an existing literal, and any other gate
    is built once per normalised input tuple.  Every circuit above them
    (adders, multiplier, shifter, comparators, divrem) is made of these
    gates, so constant operands and repeated subcircuits cost no
    variables and no clauses.
    """

    def __init__(self):
        self.sat = SatSolver()
        self._bool_cache: dict[T.Term, int] = {}
        self._bits_cache: dict[T.Term, list[int]] = {}
        # Structural hash tables: normalised inputs -> output literal.
        self._and_gates: dict[tuple[int, int], int] = {}
        self._xor_gates: dict[tuple[int, int], int] = {}
        self._ite_gates: dict[tuple[int, int, int], int] = {}
        self.true_lit = self._new_lit()
        self.sat.add_clause([self.true_lit])
        self.false_lit = neg(self.true_lit)

    # -- primitive gates ------------------------------------------------------

    def _new_lit(self) -> int:
        return lit(self.sat.new_var())

    def gate_and(self, a: int, b: int) -> int:
        if a == b or b == self.true_lit:
            return a
        if a == self.true_lit:
            return b
        if a == neg(b) or a == self.false_lit or b == self.false_lit:
            return self.false_lit
        if a > b:
            a, b = b, a
        o = self._and_gates.get((a, b))
        if o is None:
            o = self._new_lit()
            self.sat.add_clause([neg(o), a])
            self.sat.add_clause([neg(o), b])
            self.sat.add_clause([o, neg(a), neg(b)])
            self._and_gates[(a, b)] = o
        return o

    def gate_or(self, a: int, b: int) -> int:
        return neg(self.gate_and(neg(a), neg(b)))

    def gate_xor(self, a: int, b: int) -> int:
        # Strip both input polarities into one output flip: a ^ b with
        # a, b positive.  The true literal is positive, so a false input
        # arrives here as true plus a flip.
        flip = (a ^ b) & 1
        a &= ~1
        b &= ~1
        if a == b:
            return self.false_lit ^ flip
        if a == self.true_lit:
            return neg(b) ^ flip
        if b == self.true_lit:
            return neg(a) ^ flip
        if a > b:
            a, b = b, a
        o = self._xor_gates.get((a, b))
        if o is None:
            o = self._new_lit()
            self.sat.add_clause([neg(o), a, b])
            self.sat.add_clause([neg(o), neg(a), neg(b)])
            self.sat.add_clause([o, neg(a), b])
            self.sat.add_clause([o, a, neg(b)])
            self._xor_gates[(a, b)] = o
        return o ^ flip

    def gate_iff(self, a: int, b: int) -> int:
        return neg(self.gate_xor(a, b))

    def gate_ite(self, c: int, t: int, e: int) -> int:
        if c == self.true_lit or t == e:
            return t
        if c == self.false_lit:
            return e
        if c & 1:  # ite(~c, t, e) = ite(c, e, t)
            c, t, e = neg(c), e, t
        if t & 1:  # ite(c, ~t, ~e) = ~ite(c, t, e)
            return neg(self.gate_ite(c, neg(t), neg(e)))
        # A constant branch, or a branch that is the condition itself,
        # makes the mux an and/or gate.
        if t == self.true_lit or t == c:
            return self.gate_or(c, e)
        if e == self.true_lit or e == neg(c):
            return self.gate_or(neg(c), t)
        if e == self.false_lit or e == c:
            return self.gate_and(c, t)
        o = self._ite_gates.get((c, t, e))
        if o is None:
            o = self._new_lit()
            self.sat.add_clause([neg(c), neg(t), o])
            self.sat.add_clause([neg(c), t, neg(o)])
            self.sat.add_clause([c, neg(e), o])
            self.sat.add_clause([c, e, neg(o)])
            self._ite_gates[(c, t, e)] = o
        return o

    def gate_big_and(self, lits: list[int]) -> int:
        o = self.true_lit
        for l in lits:
            o = self.gate_and(o, l)
        return o

    # -- arithmetic circuits ------------------------------------------------------

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        ab = self.gate_xor(a, b)
        s = self.gate_xor(ab, cin)
        cout = self.gate_or(self.gate_and(a, b), self.gate_and(cin, ab))
        return s, cout

    def add_bits(self, xs: list[int], ys: list[int],
                 carry_in: Optional[int] = None) -> list[int]:
        false = self.false_lit
        carry = carry_in if carry_in is not None else false
        out = []
        for a, b in zip(xs, ys):
            if carry == false and (a == false or b == false):
                # The full adder would fold to the other bit and a false
                # carry, building no gate.
                out.append(b if a == false else a)
                continue
            s, carry = self._full_adder(a, b, carry)
            out.append(s)
        return out

    def mul_bits(self, xs: list[int], ys: list[int]) -> list[int]:
        width = len(xs)
        acc = [self.false_lit] * width
        for i, y in enumerate(ys):
            if y == self.false_lit:
                continue  # an all-false row adds nothing
            # Row i is xs shifted left by i: its low i bits are false and
            # would leave acc[:i] alone, so it is added into acc[i:] only.
            partial = [self.gate_and(x, y) for x in xs[: width - i]]
            acc[i:] = self.add_bits(acc[i:], partial)
        return acc

    def ule_bits(self, xs: list[int], ys: list[int]) -> int:
        """xs <= ys unsigned (bit 0 = LSB)."""
        le = self.true_lit
        for a, b in zip(xs, ys):  # LSB to MSB
            # le' = (a < b) | (a == b) & le  with a<b == ~a & b
            lt = self.gate_and(neg(a), b)
            eq = self.gate_iff(a, b)
            le = self.gate_or(lt, self.gate_and(eq, le))
        return le

    def ult_bits(self, xs: list[int], ys: list[int]) -> int:
        return neg(self.ule_bits(ys, xs))

    def eq_bits(self, xs: list[int], ys: list[int]) -> int:
        return self.gate_big_and([self.gate_iff(a, b) for a, b in zip(xs, ys)])

    def shift_bits(self, xs: list[int], ys: list[int], left: bool) -> list[int]:
        """Barrel shifter; shift amounts >= width produce zero."""
        width = len(xs)
        cur = list(xs)
        for stage in range(len(ys)):
            amount = 1 << stage
            sel = ys[stage]
            shifted = []
            for i in range(width):
                src = i - amount if left else i + amount
                bit = cur[src] if 0 <= src < width else self.false_lit
                shifted.append(self.gate_ite(sel, bit, cur[i]))
            cur = shifted
            if amount >= width:
                # Any set bit beyond this stage zeroes everything.
                rest = ys[stage + 1:]
                if rest:
                    any_high = rest[0]
                    for r in rest[1:]:
                        any_high = self.gate_or(any_high, r)
                    cur = [self.gate_and(c, neg(any_high)) for c in cur]
                break
        return cur

    # -- term translation --------------------------------------------------------

    def bits(self, t: T.Term) -> list[int]:
        """Bit literals (LSB first) for a BV-sorted term."""
        cached = self._bits_cache.get(t)
        if cached is not None:
            return cached
        width = t.sort.width
        k = t.kind
        if k == T.BV_CONST:
            v = t.payload
            out = [self.true_lit if (v >> i) & 1 else self.false_lit
                   for i in range(width)]
        elif k in (T.VAR, T.APP):
            out = [self._new_lit() for _ in range(width)]
        elif k == T.BVNOT:
            out = [neg(b) for b in self.bits(t.args[0])]
        elif k in (T.BVAND, T.BVOR, T.BVXOR):
            xs, ys = self.bits(t.args[0]), self.bits(t.args[1])
            gate = {T.BVAND: self.gate_and, T.BVOR: self.gate_or,
                    T.BVXOR: self.gate_xor}[k]
            out = [gate(a, b) for a, b in zip(xs, ys)]
        elif k == T.BVADD:
            out = self.add_bits(self.bits(t.args[0]), self.bits(t.args[1]))
        elif k == T.BVSUB:
            out = self.add_bits(self.bits(t.args[0]),
                                [neg(b) for b in self.bits(t.args[1])],
                                carry_in=self.true_lit)
        elif k == T.BVMUL:
            out = self.mul_bits(self.bits(t.args[0]), self.bits(t.args[1]))
        elif k in (T.BVUDIV, T.BVUREM):
            out = self._divrem(t)
        elif k == T.BVSHL:
            out = self.shift_bits(self.bits(t.args[0]), self.bits(t.args[1]), True)
        elif k == T.BVLSHR:
            out = self.shift_bits(self.bits(t.args[0]), self.bits(t.args[1]), False)
        elif k == T.ITE:
            c = self.blit(t.args[0])
            xs, ys = self.bits(t.args[1]), self.bits(t.args[2])
            out = [self.gate_ite(c, a, b) for a, b in zip(xs, ys)]
        else:
            raise ValueError(f"bit_vector mode cannot handle term kind {k}: {t!r}")
        self._bits_cache[t] = out
        return out

    def _divrem(self, t: T.Term) -> list[int]:
        """Encode udiv/urem via a = b*q + r, r < b (b != 0); x/0 = ones, x%0 = x."""
        a, b = t.args
        width = t.sort.width
        key_q = T.Term(T.APP, t.sort, (a, b),
                       T.FuncDecl("_bvq", [a.sort, b.sort], t.sort))
        key_r = T.Term(T.APP, t.sort, (a, b),
                       T.FuncDecl("_bvr", [a.sort, b.sort], t.sort))
        if key_q not in self._bits_cache:
            qb = [self._new_lit() for _ in range(width)]
            rb = [self._new_lit() for _ in range(width)]
            self._bits_cache[key_q] = qb
            self._bits_cache[key_r] = rb
            ab, bb = self.bits(a), self.bits(b)
            b_nonzero = bb[0]
            for x in bb[1:]:
                b_nonzero = self.gate_or(b_nonzero, x)
            # A divisor that folds to a constant needs only its own case.
            if b_nonzero != self.false_lit:
                # Widen to 2w to rule out overflow in b*q + r.
                pad = [self.false_lit] * width
                ab2, bb2, qb2, rb2 = (xs + pad for xs in (ab, bb, qb, rb))
                prod = self.mul_bits(bb2, qb2)
                total = self.add_bits(prod, rb2)
                ok = self.gate_and(self.eq_bits(total, ab2),
                                   self.ult_bits(rb, bb))
                self.sat.add_clause([neg(b_nonzero), ok])
            if b_nonzero != self.true_lit:
                # b == 0 cases per SMT-LIB: q = all ones, r = a.
                q_ones = self.eq_bits(qb, [self.true_lit] * width)
                r_is_a = self.eq_bits(rb, ab)
                zero_ok = self.gate_and(q_ones, r_is_a)
                self.sat.add_clause([b_nonzero, zero_ok])
        return self._bits_cache[key_q if t.kind == T.BVUDIV else key_r]

    def blit(self, t: T.Term) -> int:
        """SAT literal for a bool-sorted term."""
        cached = self._bool_cache.get(t)
        if cached is not None:
            return cached
        k = t.kind
        if t is T.TRUE:
            out = self.true_lit
        elif t is T.FALSE:
            out = self.false_lit
        elif k == T.NOT:
            out = neg(self.blit(t.args[0]))
        elif k == T.AND:
            out = self.gate_big_and([self.blit(a) for a in t.args])
        elif k == T.OR:
            out = neg(self.gate_big_and([neg(self.blit(a)) for a in t.args]))
        elif k == T.IMPLIES:
            out = self.gate_or(neg(self.blit(t.args[0])), self.blit(t.args[1]))
        elif k == T.EQ:
            a = t.args[0]
            if a.sort.is_bv():
                out = self.eq_bits(self.bits(t.args[0]), self.bits(t.args[1]))
            elif a.sort.is_bool():
                out = self.gate_iff(self.blit(t.args[0]), self.blit(t.args[1]))
            else:
                raise ValueError(f"bit_vector mode: equality over {a.sort}")
        elif k == T.BVULE:
            out = self.ule_bits(self.bits(t.args[0]), self.bits(t.args[1]))
        elif k == T.BVULT:
            out = self.ult_bits(self.bits(t.args[0]), self.bits(t.args[1]))
        elif k == T.VAR:
            out = self._new_lit()
        else:
            raise ValueError(f"bit_vector mode cannot handle boolean kind {k}: {t!r}")
        self._bool_cache[t] = out
        return out


def bv_check_sat(formula: T.Term, conflict_budget: Optional[int] = None
                 ) -> Optional[bool]:
    """Decide satisfiability of a pure BV/bool formula.

    Returns True/False, or None if the SAT budget ran out.
    """
    blaster = BitBlaster()
    root = blaster.blit(formula)
    blaster.sat.add_clause([root])
    return blaster.sat.solve(conflict_budget=conflict_budget)


def bv_model(formula: T.Term) -> Optional[dict[T.Term, int]]:
    """A satisfying assignment for the formula's BV variables, or None."""
    blaster = BitBlaster()
    root = blaster.blit(formula)
    blaster.sat.add_clause([root])
    if blaster.sat.solve() is not True:
        return None
    model = blaster.sat.model()
    out = {}
    for t, bits in blaster._bits_cache.items():
        if t.kind == T.VAR:
            val = 0
            for i, b in enumerate(bits):
                if model[b >> 1] == ((b & 1) == 0):
                    val |= 1 << i
            out[t] = val
    return out
