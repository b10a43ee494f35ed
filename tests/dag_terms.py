"""Random hash-consed terms with heavy subterm sharing.

Differential tests of the solver's memoized traversals need inputs where
one subterm is reached along many paths.  :data:`STEPS` draws a recipe
and :func:`build` replays it: every step combines entries already in the
int and bool pools, so later terms share earlier ones, including ITE,
div and mod nodes and (optionally) quantifiers over ``x``, ``y``, ``w``.
"""

from hypothesis import strategies as st

from repro.smt import terms as T
from repro.smt.sorts import BOOL, INT

X, Y, W = (T.Var(n, INT) for n in ("x", "y", "w"))
F = T.FuncDecl("dag_f", [INT], INT)
P = T.FuncDecl("dag_p", [INT, INT], BOOL)

# One step: (operation, three pool indices).
STEPS = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 63),
                           st.integers(0, 63), st.integers(0, 63)),
                 min_size=1, max_size=40)


def build(steps, quantifiers: bool = True):
    """Replay ``steps``; returns the (ints, bools) pools."""
    ints = [X, Y, W, T.IntVal(0), T.IntVal(3)]
    bools = [T.Lt(X, Y)]
    for op, i, j, k in steps:
        a, b = ints[i % len(ints)], ints[j % len(ints)]
        p, q = bools[i % len(bools)], bools[j % len(bools)]
        if op == 0:
            ints.append(T.Add(a, b))
        elif op == 1:
            ints.append(T.Sub(a, b))
        elif op == 2:
            ints.append(T.Mul(T.IntVal(k % 5 - 2), a))
        elif op == 3:
            ints.append(T.Neg(a))
        elif op == 4:
            ints.append(T.Div(a, b))
        elif op == 5:
            ints.append(T.Mod(a, b))
        elif op == 6:
            ints.append(T.Ite(bools[k % len(bools)], a, b))
        elif op == 7:
            ints.append(F(a))
        elif op == 8:
            bools.append(T.Le(a, b))
        elif op == 9:
            bools.append(T.Lt(a, b))
        elif op == 10:
            bools.append(T.Eq(a, b))
        elif op == 11:
            bools.append(T.And(p, q))
        elif op == 12:
            bools.append(T.Or(p, q))
        elif op == 13:
            bools.append(T.Not(p))
        elif op == 14:
            bools.append(P(a, b))
        elif quantifiers:
            bools.append(T.ForAll([(X, Y, W)[k % 3]], p))
    return ints, bools
