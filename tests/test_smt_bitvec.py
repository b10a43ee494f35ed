"""Tests for the bit-blasting BV decision procedure (by(bit_vector))."""

import random

import pytest

from repro.smt import terms as T
from repro.smt.bitvec import BitBlaster, bv_check_sat, bv_model
from repro.smt.compute import evaluate
from repro.smt.sat import neg
from repro.smt.sorts import bv

W = 8
B = bv(W)
x = T.Var("x", B)
y = T.Var("y", B)


def _valid(claim):
    return bv_check_sat(T.Not(claim)) is False


def test_paper_mask_mod_identity():
    # The §3.3 example, scaled to 8 bits: x & 7 == x % 8.
    assert _valid(T.Eq(T.BvAnd(x, T.BVVal(7, W)), T.BvURem(x, T.BVVal(8, W))))


def test_mask_mod_wrong_width_refuted():
    m = bv_model(T.Not(T.Eq(T.BvAnd(x, T.BVVal(3, W)),
                            T.BvURem(x, T.BVVal(8, W)))))
    assert m is not None
    assert (m[x] & 3) != (m[x] % 8)


def test_add_commutes():
    assert _valid(T.Eq(T.BvAdd(x, y), T.BvAdd(y, x)))


def test_sub_self_is_zero():
    assert _valid(T.Eq(T.BvSub(x, x), T.BVVal(0, W)))


def test_shift_is_mul_by_two():
    assert _valid(T.Eq(T.BvShl(x, T.BVVal(1, W)), T.BvMul(x, T.BVVal(2, W))))


def test_de_morgan_bitwise():
    assert _valid(T.Eq(T.BvNot(T.BvAnd(x, y)),
                       T.BvOr(T.BvNot(x), T.BvNot(y))))


def test_xor_self_zero():
    assert _valid(T.Eq(T.BvXor(x, x), T.BVVal(0, W)))


def test_shift_beyond_width_is_zero():
    assert _valid(T.Eq(T.BvShl(x, T.BVVal(9, W)), T.BVVal(0, W)))


def test_lshr_then_shl_clears_low_bits():
    k = T.BVVal(3, W)
    assert _valid(T.Eq(T.BvShl(T.BvLshr(x, k), k),
                       T.BvAnd(x, T.BVVal(0b11111000, W))))


def test_udiv_relation():
    d = T.BVVal(5, W)
    q = T.BvUDiv(x, d)
    r = T.BvURem(x, d)
    assert _valid(T.Eq(T.BvAdd(T.BvMul(q, d), r), x))
    assert _valid(T.BvULt(r, d))


def test_division_by_zero_smtlib_semantics():
    z = T.BVVal(0, W)
    assert _valid(T.Eq(T.BvUDiv(x, z), T.BVVal(255, W)))
    assert _valid(T.Eq(T.BvURem(x, z), x))


@pytest.mark.parametrize("seed", range(2))
def test_ground_ops_against_python(seed):
    rng = random.Random(seed)
    ops = [
        (T.BvAnd, lambda a, b: a & b),
        (T.BvOr, lambda a, b: a | b),
        (T.BvXor, lambda a, b: a ^ b),
        (T.BvAdd, lambda a, b: (a + b) % 256),
        (T.BvSub, lambda a, b: (a - b) % 256),
        (T.BvMul, lambda a, b: (a * b) % 256),
        (T.BvUDiv, lambda a, b: (a // b) if b else 255),
        (T.BvURem, lambda a, b: (a % b) if b else a),
        (T.BvShl, lambda a, b: (a << b) % 256 if b < 8 else 0),
        (T.BvLshr, lambda a, b: (a >> b) if b < 8 else 0),
    ]
    for _ in range(40):
        op, pyop = rng.choice(ops)
        a, b = rng.randrange(256), rng.randrange(256)
        expect = pyop(a, b)
        assert _valid(T.Eq(op(T.BVVal(a, W), T.BVVal(b, W)),
                           T.BVVal(expect, W)))
        wrong = (expect + 1) % 256
        assert bv_check_sat(T.Eq(op(T.BVVal(a, W), T.BVVal(b, W)),
                                 T.BVVal(wrong, W))) is False


def test_comparisons_ground():
    rng = random.Random(7)
    for _ in range(20):
        a, b = rng.randrange(256), rng.randrange(256)
        assert bv_check_sat(T.BvULe(T.BVVal(a, W), T.BVVal(b, W))) is (a <= b)
        assert bv_check_sat(T.BvULt(T.BVVal(a, W), T.BVVal(b, W))) is (a < b)


def test_wide_word_mask_property():
    # 64-bit instance of the page-table-style lemma:
    # (a & mask(13,29)) == 0 && i < 13  ==>  ((a | bit(i)) & mask(13,29)) == 0
    # checked for a fixed i to keep blasting small.
    W64 = 16  # scaled-down width keeps the test fast; structure is identical
    a = T.Var("a", bv(W64))
    mask = ((1 << 13) - 1) & ~((1 << 5) - 1)  # bits 5..12
    i = 3
    pre = T.Eq(T.BvAnd(a, T.BVVal(mask, W64)), T.BVVal(0, W64))
    post = T.Eq(T.BvAnd(T.BvOr(a, T.BVVal(1 << i, W64)), T.BVVal(mask, W64)),
                T.BVVal(0, W64))
    assert bv_check_sat(T.Not(T.Implies(pre, post))) is False


# -- gate layer: folding and structural hashing ---------------------------------


def _two_inputs():
    bb = BitBlaster()
    a, b = bb.bits(T.Var("a", bv(2)))
    return bb, a, b


def test_and_folds_constant_equal_and_complementary_inputs():
    bb, a, _ = _two_inputs()
    n = bb.sat.num_vars
    assert bb.gate_and(a, bb.true_lit) == a
    assert bb.gate_and(bb.false_lit, a) == bb.false_lit
    assert bb.gate_and(a, a) == a
    assert bb.gate_and(a, neg(a)) == bb.false_lit
    assert bb.sat.num_vars == n


def test_x_and_not_x_blasts_to_true_without_gates():
    bb = BitBlaster()
    z = T.Var("z", B)
    claim = T.Eq(T.BvAnd(z, T.BvNot(z)), T.BVVal(0, W))
    assert bb.blit(claim) == bb.true_lit
    assert bb.sat.num_vars == 1 + W  # the true literal and z's bits


def test_xor_strips_input_polarity_into_output():
    bb, a, b = _two_inputs()
    n = bb.sat.num_vars
    o = bb.gate_xor(a, b)
    assert bb.sat.num_vars == n + 1
    assert bb.gate_xor(b, a) == o
    assert bb.gate_xor(neg(a), b) == neg(o)
    assert bb.gate_xor(a, neg(b)) == neg(o)
    assert bb.gate_xor(neg(a), neg(b)) == o
    assert bb.gate_iff(a, b) == neg(o)
    assert bb.sat.num_vars == n + 1


def test_xor_folds_constant_and_equal_inputs():
    bb, a, _ = _two_inputs()
    n = bb.sat.num_vars
    assert bb.gate_xor(a, bb.false_lit) == a
    assert bb.gate_xor(bb.true_lit, a) == neg(a)
    assert bb.gate_xor(a, a) == bb.false_lit
    assert bb.gate_xor(a, neg(a)) == bb.true_lit
    assert bb.sat.num_vars == n


def test_ite_folds_constant_condition_and_branches():
    bb, c, t = _two_inputs()
    e = bb.gate_and(c, t)
    n = bb.sat.num_vars
    assert bb.gate_ite(bb.true_lit, t, e) == t
    assert bb.gate_ite(bb.false_lit, t, e) == e
    assert bb.gate_ite(c, t, t) == t
    assert bb.gate_ite(c, bb.true_lit, bb.false_lit) == c
    assert bb.gate_ite(c, bb.false_lit, bb.true_lit) == neg(c)
    assert bb.sat.num_vars == n


def test_ite_with_a_constant_branch_is_an_and_gate():
    bb, c, t = _two_inputs()
    assert bb.gate_ite(c, t, bb.false_lit) == bb.gate_and(c, t)
    assert bb.gate_ite(c, bb.false_lit, t) == bb.gate_and(neg(c), t)
    assert bb.gate_ite(c, bb.true_lit, t) == bb.gate_or(c, t)
    assert bb.gate_ite(c, t, bb.true_lit) == bb.gate_or(neg(c), t)
    assert bb.gate_ite(c, t, neg(c)) == bb.gate_or(neg(c), t)


def test_gates_are_built_once_per_normalised_inputs():
    bb, a, b = _two_inputs()
    n = bb.sat.num_vars
    o = bb.gate_and(a, b)
    assert bb.gate_and(b, a) == o
    m = bb.gate_ite(a, b, neg(b))
    assert bb.gate_ite(neg(a), neg(b), b) == m
    assert bb.gate_ite(a, neg(b), b) == neg(m)
    assert bb.sat.num_vars == n + 2


# -- CNF size guard ---------------------------------------------------------------


def _blast(formula):
    bb = BitBlaster()
    root = bb.blit(formula)
    return bb, root


def test_mask_mod_identity_64_bit_stays_small():
    # The README example at full width.  Without folding the blaster
    # made 108,542 variables for it.
    w = 64
    v = T.Var("v", bv(w))
    claim = T.Eq(T.BvURem(v, T.BVVal(512, w)), T.BvAnd(v, T.BVVal(511, w)))
    bb, root = _blast(T.Not(claim))
    assert bb.sat.num_vars < 2000
    bb.sat.add_clause([root])
    assert bb.sat.solve() is False


def test_mul_by_power_of_two_folds_to_root_conflict():
    # x * 4096 == x << 12 folds to true: its negation is the false
    # literal, with no gate built (27,416 variables without folding).
    w = 64
    v = T.Var("v", bv(w))
    claim = T.Eq(T.BvMul(v, T.BVVal(4096, w)), T.BvShl(v, T.BVVal(12, w)))
    bb, root = _blast(T.Not(claim))
    assert root == bb.false_lit
    assert bb.sat.num_vars == 1 + w
    assert bv_check_sat(T.Not(claim)) is False


# -- adder skips: the same CNF as the plain ripple-carry circuits -------------------


def _ref_add_bits(bb, xs, ys, carry_in=None):
    """add_bits before it skipped folded bits: one full adder per bit."""
    carry = carry_in if carry_in is not None else bb.false_lit
    out = []
    for a, b in zip(xs, ys):
        s, carry = bb._full_adder(a, b, carry)
        out.append(s)
    return out


def _ref_mul_bits(bb, xs, ys):
    """mul_bits before it skipped rows: every row added over the full width."""
    width = len(xs)
    acc = [bb.false_lit] * width
    for i, y in enumerate(ys):
        partial = ([bb.false_lit] * i +
                   [bb.gate_and(x, y) for x in xs[: width - i]])
        acc = _ref_add_bits(bb, acc, partial)
    return acc


def _operand(bb, rng, width, p_const):
    """Bits that mix the constant literals with fresh symbolic ones."""
    out = []
    for _ in range(width):
        r = rng.random()
        if r < p_const / 2:
            out.append(bb.false_lit)
        elif r < p_const:
            out.append(bb.true_lit)
        else:
            l = bb._new_lit()
            out.append(neg(l) if rng.random() < .3 else l)
    return out


def _cnf(bb):
    return (bb.sat.num_vars, [c.lits for c in bb.sat._clauses],
            list(bb.sat._trail))


def _same_circuit(build_ref, build_new, seed, width, p_const):
    results = []
    for build in (build_ref, build_new):
        # Identical operand draws give identical literals in both blasters.
        rng = random.Random(seed)
        bb = BitBlaster()
        xs = _operand(bb, rng, width, p_const)
        ys = _operand(bb, rng, width, p_const)
        results.append((build(bb, rng, xs, ys), _cnf(bb)))
    assert results[0] == results[1]


def _carry(bb, kind):
    if kind == "symbolic":
        return bb._new_lit()
    return {None: None, "false": bb.false_lit, "true": bb.true_lit}[kind]


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 64])
@pytest.mark.parametrize("p_const", [0.0, 0.5, 0.9, 1.0])
def test_adder_skips_build_the_same_cnf(width, p_const):
    for kind in (None, "false", "true", "symbolic"):
        for seed in range(3):
            _same_circuit(
                lambda bb, rng, xs, ys: _ref_add_bits(bb, xs, ys,
                                                      _carry(bb, kind)),
                lambda bb, rng, xs, ys: bb.add_bits(xs, ys, _carry(bb, kind)),
                seed, width, p_const)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 64])
@pytest.mark.parametrize("p_const", [0.0, 0.5, 0.9, 1.0])
def test_multiplier_row_skips_build_the_same_cnf(width, p_const):
    def zero_rows(bb, rng, ys):
        # A multiplier with some rows forced to zero, as a constant or
        # zero-extended operand has.
        return [bb.false_lit if rng.random() < .5 else y for y in ys]
    for seed in range(1 if width == 64 else 4):
        _same_circuit(lambda bb, rng, xs, ys: _ref_mul_bits(bb, xs, ys),
                      lambda bb, rng, xs, ys: bb.mul_bits(xs, ys),
                      seed, width, p_const)
        _same_circuit(
            lambda bb, rng, xs, ys: _ref_mul_bits(bb, xs, zero_rows(bb, rng, ys)),
            lambda bb, rng, xs, ys: bb.mul_bits(xs, zero_rows(bb, rng, ys)),
            seed, width, p_const)
        # Zero-extended operands, as _divrem widens to 2w.
        _same_circuit(
            lambda bb, rng, xs, ys: _ref_mul_bits(
                bb, xs + [bb.false_lit] * width, ys + [bb.false_lit] * width),
            lambda bb, rng, xs, ys: bb.mul_bits(
                xs + [bb.false_lit] * width, ys + [bb.false_lit] * width),
            seed, width, p_const)


# -- differential check against brute force -----------------------------------------

DW = 4
DX = T.Var("dx", bv(DW))
DY = T.Var("dy", bv(DW))
_BINOPS = (T.BvAnd, T.BvOr, T.BvXor, T.BvAdd, T.BvSub, T.BvMul, T.BvUDiv,
           T.BvURem, T.BvShl, T.BvLshr)
_CMPS = (T.BvULe, T.BvULt, T.Eq)


def _random_term(rng, pool, depth):
    """A random width-4 term over DX, DY and constants.  Picks from
    ``pool`` (terms built so far) often, so subterms are shared."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if pool and r < 0.4:
            return rng.choice(pool)
        if r < 0.7:
            return rng.choice((DX, DY))
        # 0, all-ones and shift amounts >= width are the edge cases.
        return T.BVVal(rng.choice((0, 1, 4, 5, 15, rng.randrange(16))), DW)
    r = rng.random()
    if r < 0.1:
        t = T.BvNot(_random_term(rng, pool, depth - 1))
    elif r < 0.25:
        cond = rng.choice(_CMPS)(_random_term(rng, pool, depth - 1),
                                 _random_term(rng, pool, depth - 1))
        t = T.Ite(cond, _random_term(rng, pool, depth - 1),
                  _random_term(rng, pool, depth - 1))
    else:
        t = rng.choice(_BINOPS)(_random_term(rng, pool, depth - 1),
                                _random_term(rng, pool, depth - 1))
    pool.append(t)
    return t


def _holds(formula, xv, yv):
    ground = T.substitute(formula, {DX: T.BVVal(xv, DW), DY: T.BVVal(yv, DW)})
    return evaluate(ground) is T.TRUE


@pytest.mark.parametrize("seed", range(3))
def test_blaster_matches_brute_force_on_symbolic_terms(seed):
    rng = random.Random(seed)
    pool: list = []
    for _ in range(25):
        t = _random_term(rng, pool, 3)
        formula = T.Eq(t, T.BVVal(rng.randrange(16), DW))
        expect = any(_holds(formula, a, b)
                     for a in range(16) for b in range(16))
        assert bv_check_sat(formula) is expect, formula
        if expect:
            m = bv_model(formula)
            assert m is not None
            assert _holds(formula, m.get(DX, 0), m.get(DY, 0)), formula
