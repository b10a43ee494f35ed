"""Seeded stubborn-obligation corpus for portfolio benchmarking.

Small modules constructed so that *no single* shipped profile
discharges all of their obligations, while a 2-wide portfolio race
proves every one.  They are the acceptance fixture for the
portfolio race-replay benchmarks (``benchmarks/test_profiles.py``) and the
determinism tests (``tests/test_profiles.py``).

The two gaps exploit the real incompleteness frontiers of the solver's
two quantifier engines:

* :func:`build_mbqi_gap_module` — a goal guarded by a quantifier whose
  explicit trigger (``shield(x)``) never has a ground occurrence, so
  syntactic E-matching can never instantiate it no matter how large
  the budgets (explicit triggers win over every policy, broad
  included).  MBQI (the ``epr`` profile) enumerates the ground
  universe — just ``0`` — and proves it instantly.  Every E-matching
  profile saturates and reports ``unknown``.

* :func:`build_universe_gap_module` — an instantiation chain
  ``q(0), ∀n {q(n)} 0 ≤ n < K → q(n+1) ⊢ q(K)``.  E-matching walks the
  chain (one instantiation per link, well inside every profile's
  budgets), but under MBQI the ground ``INT`` universe blows past
  ``mbqi_max_universe`` and the truncated enumeration is incomplete:
  the ``epr`` profile reports ``unknown`` while every E-matching
  profile proves the goal.

* :func:`build_stubborn_pair_module` — both gaps in one module, plus a
  sanity goal every profile proves: the module that *only* portfolio
  mode verifies (ISSUE 8's acceptance criterion).  Under a ``default``
  primary the mbqi-gap race is won by ``epr``; under an ``epr``
  primary the universe-gap race is won by ``aggressive`` (first
  E-matching candidate in the race order).

Every obligation here resolves in milliseconds-to-tenths — failures
are *structural* (trigger blindness, universe truncation), not budget
walks — so the corpus stays cheap enough for CI.
"""

from __future__ import annotations

from ..lang import BOOL, INT, Function, Module, Param, call, forall, lit, \
    proof_fn, var

__all__ = ["CHAIN_LENGTH", "build_mbqi_gap_module",
           "build_universe_gap_module", "build_stubborn_pair_module",
           "CORPUS_BUILDERS"]

#: Links in the universe-gap instantiation chain.  Anything larger
#: than ``mbqi_max_universe`` (9) defeats MBQI; 40 keeps the race
#: visibly non-trivial while solving in well under a second.
CHAIN_LENGTH = 40


def _add_mbqi_gap(mod: Module, suffix: str = "") -> None:
    p = Function(f"p{suffix}", "spec", [Param("x", INT)],
                 ("result", BOOL))
    shield = Function(f"shield{suffix}", "spec", [Param("x", INT)],
                      ("result", BOOL))
    mod.add(p)
    mod.add(shield)
    x = var("x", INT)
    # The explicit trigger wins over any policy (broad included), and
    # shield(x) never occurs ground — E-matching is structurally blind
    # to this quantifier.
    guarded = forall([("x", INT)], call(mod, p.name, x),
                     triggers=[[call(mod, shield.name, x)]])
    proof_fn(mod, f"needs_mbqi{suffix}", [],
             requires=[guarded],
             ensures=[call(mod, p.name, lit(0))],
             body=[])


def _add_universe_gap(mod: Module, suffix: str = "",
                      length: int = CHAIN_LENGTH) -> None:
    q = Function(f"q{suffix}", "spec", [Param("n", INT)],
                 ("result", BOOL))
    mod.add(q)
    n = var("n", INT)
    step = forall(
        [("n", INT)],
        (n >= 0).and_(n < lit(length)).implies(
            call(mod, q.name, n + 1)),
        triggers=[[call(mod, q.name, n)]])
    proof_fn(mod, f"needs_ematch{suffix}", [],
             requires=[call(mod, q.name, lit(0)), step],
             ensures=[call(mod, q.name, lit(length))],
             body=[])


def _add_sanity(mod: Module, suffix: str = "") -> None:
    r = Function(f"r{suffix}", "spec", [Param("x", INT)],
                 ("result", BOOL))
    mod.add(r)
    x = var("x", INT)
    easy = forall([("x", INT)], call(mod, r.name, x),
                  triggers=[[call(mod, r.name, x)]])
    proof_fn(mod, f"sanity{suffix}", [],
             requires=[easy],
             ensures=[call(mod, r.name, lit(7))],
             body=[])


def build_mbqi_gap_module() -> Module:
    """Provable by ``epr`` (MBQI) only; every E-matching profile
    saturates to ``unknown``."""
    mod = Module("profiles_mbqi_gap")
    _add_mbqi_gap(mod)
    return mod


def build_universe_gap_module() -> Module:
    """Provable by every E-matching profile; MBQI's truncated universe
    leaves ``epr`` at ``unknown``."""
    mod = Module("profiles_universe_gap")
    _add_universe_gap(mod)
    return mod


def build_stubborn_pair_module() -> Module:
    """The portfolio acceptance module: one obligation only MBQI
    proves, one MBQI cannot, one sanity goal — no single profile
    verifies the module, a 2-wide race does."""
    mod = Module("profiles_stubborn_pair")
    _add_mbqi_gap(mod)
    _add_universe_gap(mod)
    _add_sanity(mod)
    return mod


#: Name -> zero-argument builder, for scripts and the ablation sweep.
CORPUS_BUILDERS = {
    "mbqi_gap": build_mbqi_gap_module,
    "universe_gap": build_universe_gap_module,
    "stubborn_pair": build_stubborn_pair_module,
}
