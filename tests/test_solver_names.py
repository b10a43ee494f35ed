"""Names the solver makes: per solver, reserved, and never shown.

Skolems, ITE-lift variables and MBQI witnesses are numbered by the
``SmtSolver`` that draws them and hold ``T.SOLVER_MARK``, which no other
name may hold.  So a query cannot already contain a solver-made name, a
query re-solved by a new solver re-creates the same terms (the intern
table stops growing once every obligation has been solved), and the
search does not depend on what the process solved before.
"""

import hashlib
import json
import os

import pytest

from repro.api import Session, VerifyConfig
from repro.diag.model import extract_witness
from repro.lang import (INT, U64, Module, assert_, exec_fn, exists, ite,
                        lit, ret, var)
from repro.millibench.lists import (build_doubly_linked_module,
                                    build_singly_linked_module)
from repro.smt import terms as T
from repro.smt.printer import query_to_smtlib
from repro.smt.solver import SAT, UNSAT, SmtSolver
from repro.smt.sorts import BOOL, uninterpreted
from repro.systems.nr.model import build_nr_core_module

X, Y = T.Var("x", T.INT), T.Var("y", T.INT)


# -- the mark is reserved ------------------------------------------------------


@pytest.mark.parametrize("name", ["sk_x'1", "ite'1", "w_S'1", "'"])
def test_marked_names_are_refused_outside_the_solver(name):
    with pytest.raises(ValueError):
        T.Var(name, T.INT)
    with pytest.raises(ValueError):
        T.FuncDecl(name, [T.INT], T.INT)


def test_reserved_names_hold_the_mark():
    with pytest.raises(ValueError):
        T.Var("sk_x!1", T.INT, reserved=True)
    with pytest.raises(ValueError):
        T.FuncDecl("sk_x!1", [T.INT], T.INT, reserved=True)


def test_skolem_does_not_capture_a_query_name():
    # sk_x!1 is the name the old process-wide scheme drew first for x.
    for taken in (T.Var("sk_x!1", T.INT), T.Var("sk_x", T.INT)):
        s = SmtSolver()
        s.add(T.Eq(taken, T.IntVal(0)))
        s.add(T.Exists([X], T.Lt(T.IntVal(5), X)))
        s.add(T.Not(T.Lt(T.IntVal(5), taken)))
        assert s.check() == SAT


def test_skolem_function_does_not_capture_a_query_function():
    # Under a universal binder the skolem is a function of it.
    taken = T.FuncDecl("sk_x!1", [T.INT], T.INT)
    s = SmtSolver()
    s.add(T.ForAll([Y], T.Eq(taken(Y), Y), [[taken(Y)]]))
    s.add(T.ForAll([Y], T.Exists([X], T.Lt(Y, X))))
    assert s.check() != UNSAT


def test_ite_lift_variable_does_not_capture_a_query_name():
    c = T.Var("c", BOOL)
    taken = T.Var("ite!1", T.INT)
    s = SmtSolver()
    s.add(T.Eq(taken, T.IntVal(0)))
    s.add(T.Eq(Y, T.Ite(c, T.IntVal(7), T.IntVal(8))))
    s.add(T.Lt(T.IntVal(6), Y))
    assert s.check() == SAT
    assert s._names_drawn == 1


def test_a_solver_numbers_its_names_from_one():
    def skolems():
        s = SmtSolver()
        s.add(T.Exists([X], T.Lt(T.IntVal(5), X)))
        s.add(T.Exists([X], T.Lt(X, T.IntVal(0))))
        assert s.check() == SAT
        return [t for t in s._atom_var if T.SOLVER_MARK in repr(t)]

    first = skolems()
    assert first and skolems() == first
    names = {v.payload for t in first for v in t.free_vars()}
    assert names == {f"sk_x{T.SOLVER_MARK}1", f"sk_x{T.SOLVER_MARK}2"}


def test_witness_never_renders_a_solver_made_name():
    # v's class holds the lift variable of the ITE, as small as v: the
    # model must render neither it nor a class it represents.
    S = uninterpreted("NamesS")
    f = T.FuncDecl("names_f", [T.INT], S)
    for i in range(10):
        u, v = T.Var(f"u{i}", S), T.Var(f"v{i}", S)
        goal = T.Eq(f(T.IntVal(i)), T.Ite(T.Var(f"c{i}", BOOL), u, v))
        s = SmtSolver()
        s.add(goal)
        assert s.check() == SAT and s._names_drawn == 1
        assert s.model_repr(f(T.IntVal(i))) in (f"u{i}", f"v{i}")
        for t in (u, v):
            assert T.SOLVER_MARK not in (s.model_repr(t) or "")
        for row in extract_witness(s, goal):
            assert all(T.SOLVER_MARK not in x for x in row.values()), row


def _drawing_module():
    """A failing function whose queries make the solver draw names: an
    existential premise (a skolem) and an integer ITE (a lift
    variable)."""
    mod = Module("names_drawing")
    x, y = var("x", U64), var("y", U64)
    exec_fn(mod, "pick", [("x", U64)], ret=("r", U64),
            requires=[x < lit(100), exists([("k", INT)],
                                             var("k", INT) > x)],
            ensures=[var("r", U64) > x],
            body=[ret(ite(x < lit(50), x + lit(1), x))])
    exec_fn(mod, "probe", [("y", U64)],
            requires=[y < lit(10)],
            body=[assert_(ite(y < lit(5), y, y + lit(1)) < lit(10))])
    return mod


def test_no_solver_name_reaches_a_query_digest_or_witness(tmp_path,
                                                          monkeypatch):
    drawn = []
    fresh = SmtSolver._fresh

    def counting(self, prefix):
        drawn.append(prefix)
        return fresh(self, prefix)

    monkeypatch.setattr(SmtSolver, "_fresh", counting)
    texts = []
    check = SmtSolver.check

    def printing(self, *args, **kwargs):
        texts.append(query_to_smtlib(self._assertions))
        return check(self, *args, **kwargs)

    monkeypatch.setattr(SmtSolver, "check", printing)
    cache = str(tmp_path / "pc")
    res = Session(VerifyConfig(jobs=1, diagnostics=True, triage="off",
                               cache_dir=cache)).verify_module(
        _drawing_module())
    assert not res.ok
    assert {"ite", "sk_q!k"} <= set(drawn)
    rows = [row for f in res.functions for o in f.obligations if o.diag
            for row in o.diag.witness]
    assert rows
    mark = T.SOLVER_MARK
    for row in rows:
        assert all(mark not in v for v in row.values()), row
    assert texts and all(mark not in t for t in texts)
    stored = [os.path.join(d, n) for d, _, ns in os.walk(cache) for n in ns]
    assert stored
    for path in stored:
        with open(path) as fh:
            assert mark not in fh.read(), path


# -- the intern table stays bounded -------------------------------------------


def test_intern_table_is_flat_after_the_first_pass():
    """Re-verifying modules whose queries draw skolems interns nothing
    new: each solver re-creates the names of the pass before."""
    builders = (build_singly_linked_module, build_doubly_linked_module,
                build_nr_core_module)
    drawn = []
    fresh = SmtSolver._fresh

    def counting(self, prefix):
        drawn.append(prefix)
        return fresh(self, prefix)

    sizes = []
    SmtSolver._fresh = counting
    try:
        for _ in range(3):
            for build in builders:
                with Session(VerifyConfig(jobs=1, analyze=True)) as s:
                    assert s.verify_module(build()).ok
            sizes.append((len(T.Term._interned), len(T.FuncDecl._interned)))
    finally:
        SmtSolver._fresh = fresh
    assert any(p.startswith("sk_") for p in drawn)
    assert sizes[1] == sizes[0] and sizes[2] == sizes[0]


# -- the search ignores process history ---------------------------------------


def _doubly_effort(tmp_path, monkeypatch, jobs, before=None):
    """Per-obligation ``Stats`` (timings dropped) and, per solver check,
    the query's digest with the SAT search counters, and the ids of the
    processes that ran the checks.  The counters are appended to a file,
    so checks in forked pool workers report too."""
    log = tmp_path / f"sat-{jobs}-{before is not None}.jsonl"
    check = SmtSolver.check

    def recording(self, *args, **kwargs):
        out = check(self, *args, **kwargs)
        digest = hashlib.sha256(
            query_to_smtlib(self._assertions).encode()).hexdigest()
        sat = self._sat
        with open(log, "a") as fh:
            fh.write(json.dumps([digest, sat.num_decisions,
                                 sat.num_conflicts,
                                 sat.num_propagations, os.getpid()]) + "\n")
        return out

    if before is not None:
        Session(VerifyConfig(jobs=1)).verify_module(before())
    monkeypatch.setattr(SmtSolver, "check", recording)
    try:
        res = Session(VerifyConfig(jobs=jobs)).verify_module(
            build_doubly_linked_module())
    finally:
        monkeypatch.undo()
    assert res.ok
    stats = {o.label: {k: v for k, v in o.stats.items()
                       if not k.endswith("seconds")}
             for f in res.functions for o in f.obligations}
    with open(log) as fh:
        lines = [json.loads(line) for line in fh]
    return (stats, sorted(line[:-1] for line in lines),
            {line[-1] for line in lines})


def test_search_ignores_process_history(tmp_path, monkeypatch):
    stats, searches, pids = _doubly_effort(tmp_path, monkeypatch, jobs=1)
    assert stats["reverse: ensures #1"]["rounds"] > 0
    assert len(searches) >= 20 and pids == {os.getpid()}
    after_singly = _doubly_effort(tmp_path, monkeypatch, jobs=1,
                                  before=build_singly_linked_module)
    assert after_singly[:2] == (stats, searches)
    pooled = _doubly_effort(tmp_path, monkeypatch, jobs=2)
    assert os.getpid() not in pooled[2]
    assert pooled[0]["reverse: ensures #1"] == stats["reverse: ensures #1"]
    assert pooled[:2] == (stats, searches)
