"""Unit tests for the CDCL SAT core, including a brute-force cross-check."""

import random
import time

import pytest

from repro.smt.sat import SatSolver, lit, lit_sign, lit_var, neg


def _brute_force_sat(num_vars, clauses):
    for assign in range(1 << num_vars):
        if all(any((bool(assign >> (l >> 1) & 1)) == ((l & 1) == 0)
                   for l in c) for c in clauses):
            return True
    return False


def _model_satisfies(model, clauses):
    return all(any(model[l >> 1] == ((l & 1) == 0) for l in c)
               for c in clauses)


def test_literal_encoding():
    assert lit(3) == 6
    assert lit(3, False) == 7
    assert lit_var(lit(3, False)) == 3
    assert lit_sign(lit(3)) is True
    assert lit_sign(lit(3, False)) is False
    assert neg(lit(3)) == lit(3, False)


def test_unit_propagation():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([lit(a)])
    s.add_clause([lit(a, False), lit(b)])
    assert s.solve() is True
    m = s.model()
    assert m[a] and m[b]


def test_trivially_unsat():
    s = SatSolver()
    a = s.new_var()
    s.add_clause([lit(a)])
    assert s.add_clause([lit(a, False)]) is False
    assert s.solve() is False


def test_tautology_clause_ignored():
    s = SatSolver()
    a = s.new_var()
    assert s.add_clause([lit(a), lit(a, False)]) is True
    assert s.solve() is True


def test_empty_clause_via_iterable():
    s = SatSolver()
    s.new_var()
    assert s.add_clause([]) is False
    assert s.solve() is False


def _pigeonhole(pigeons, holes):
    s = SatSolver()
    v = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        s.add_clause([lit(v[p][h]) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([lit(v[p1][h], False), lit(v[p2][h], False)])
    return s


def test_pigeonhole_unsat():
    assert _pigeonhole(5, 4).solve() is False


def test_pigeonhole_sat():
    s = _pigeonhole(4, 4)
    assert s.solve() is True


def test_pigeonhole_larger_unsat():
    assert _pigeonhole(7, 6).solve() is False


def test_assumptions_sat_then_blocked():
    s = SatSolver()
    x, y = s.new_var(), s.new_var()
    s.add_clause([lit(x, False), lit(y)])
    assert s.solve([lit(x)]) is True
    assert s.model()[y] is True
    s.add_clause([lit(y, False)])
    assert s.solve([lit(x)]) is False
    assert s.solve() is True  # still sat without the assumption


def test_add_clause_after_solve_at_root():
    s = SatSolver()
    x = s.new_var()
    assert s.solve() is True
    s.add_clause([lit(x)])
    assert s.solve() is True
    assert s.model()[x] is True


def test_conflict_budget_returns_none():
    s = _pigeonhole(8, 7)
    assert s.solve(conflict_budget=3) is None
    # and the solver remains usable afterwards
    assert s.solve() is False


@pytest.mark.parametrize("seed", range(4))
def test_random_3sat_against_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(120):
        nv = rng.randint(3, 9)
        nc = rng.randint(3, 40)
        clauses = [[lit(v, rng.random() < .5)
                    for v in rng.sample(range(nv), 3)] for _ in range(nc)]
        s = SatSolver()
        for _ in range(nv):
            s.new_var()
        ok = all(s.add_clause(list(c)) for c in clauses)
        res = s.solve() if ok else False
        assert res == _brute_force_sat(nv, clauses)
        if res:
            assert _model_satisfies(s.model(), clauses)


def test_statistics_counters_move():
    s = _pigeonhole(6, 5)
    s.solve()
    assert s.num_conflicts > 0
    assert s.num_propagations > 0


# ---------------------------------------------------------------------------
# Decision heap: differential against the linear scan it replaced
# ---------------------------------------------------------------------------

class _ScanSolver(SatSolver):
    """Reference decisions: scan every variable, keep the first one with
    the highest activity (so the lowest index wins a tie)."""

    def _pick_branch(self):
        best_v = -1
        best_a = -1.0
        for v in range(self.num_vars):
            if self._assign[v] < 0 and self._activity[v] > best_a:
                best_a = self._activity[v]
                best_v = v
        if best_v < 0:
            return None
        return lit(best_v, self._phase[best_v])


def _pair(num_vars):
    solvers = (SatSolver(), _ScanSolver())
    for s in solvers:
        for _ in range(num_vars):
            s.new_var()
    return solvers


def _random_3sat(rng, num_vars, num_clauses):
    return [[lit(v, rng.random() < .5) for v in rng.sample(range(num_vars), 3)]
            for _ in range(num_clauses)]


def _solve_both(heap, scan, **kwargs):
    res = heap.solve(**kwargs)
    assert res == scan.solve(**kwargs)
    if res:
        assert heap.model() == scan.model()
    assert heap.num_decisions == scan.num_decisions
    assert heap.num_conflicts == scan.num_conflicts
    assert heap.num_propagations == scan.num_propagations
    return res


def _add_both(heap, scan, clause):
    assert heap.add_clause(list(clause)) == scan.add_clause(list(clause))


@pytest.mark.parametrize("seed", range(6))
def test_heap_decisions_match_linear_scan(seed):
    rng = random.Random(seed)
    for _ in range(12):
        nv = rng.randint(20, 60)
        # Clause/variable ratios around the 3-SAT phase transition (4.26).
        nc = int(nv * rng.uniform(3.8, 4.6))
        heap, scan = _pair(nv)
        for c in _random_3sat(rng, nv, nc):
            _add_both(heap, scan, c)
        _solve_both(heap, scan)


@pytest.mark.parametrize("seed", range(4))
def test_heap_matches_scan_under_assumptions_and_added_clauses(seed):
    rng = random.Random(100 + seed)
    nv = 50
    heap, scan = _pair(nv)
    for c in _random_3sat(rng, nv, 190):
        _add_both(heap, scan, c)
    for _ in range(8):
        assumptions = [lit(v, rng.random() < .5)
                       for v in rng.sample(range(nv), rng.randint(0, 6))]
        _solve_both(heap, scan, assumptions=assumptions)
        # Clauses added between solves: the solver backtracks to the root
        # and keeps its activities, learned clauses and saved phases.
        for c in _random_3sat(rng, nv, 4):
            _add_both(heap, scan, c)
    _solve_both(heap, scan)


def test_heap_matches_scan_across_activity_rescale():
    rescaled = 0
    for seed in range(10):
        for var_inc in (1e99, 5e99):
            for ratio in (3.5, 4.26):
                rng = random.Random(seed)
                nv = 60
                heap, scan = _pair(nv)
                for c in _random_3sat(rng, nv, int(nv * ratio)):
                    _add_both(heap, scan, c)
                for s in (heap, scan):
                    # Tiny distinct activities that favour high indices
                    # underflow to 0.0 at the first 1e-100 rescale, where
                    # the tie must go to the lowest index again; a var_inc
                    # near 1e100 reaches the rescale in a few conflicts,
                    # while many variables are still unassigned.
                    s._activity = [(v + 1) * 1e-300 for v in range(nv)]
                    s._rebuild_order()
                    s._var_inc = var_inc
                _solve_both(heap, scan)
                rescaled += heap._var_inc < 1e90
    assert rescaled >= 20


def test_decisions_do_not_scan_every_variable():
    # 20,000 unconstrained variables take 20,000 decisions.  A scan over
    # all variables per decision makes that ~2e8 visits (minutes); the
    # heap does it well under a second.  The bound is loose on purpose.
    s = SatSolver()
    n = 20000
    for _ in range(n):
        s.new_var()
    start = time.monotonic()
    assert s.solve() is True
    elapsed = time.monotonic() - start
    assert s.num_decisions == n
    assert elapsed < 10.0, f"{n} decisions took {elapsed:.1f} s"
