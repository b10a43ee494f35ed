"""Congruence closure (EUF theory solver) with explanation generation.

The e-graph treats *every* compound term as a function application — not just
uninterpreted ``APP`` nodes but also interpreted operators like ``+`` — which
is sound (they are functions) and maximizes equality propagation between
theories.  Interpreted *evaluation* is someone else's job (LIA, bit-blaster).

Explanations use the Nieuwenhuis–Oliveras proof forest: every union edge is
labeled either with an input reason (an opaque tag supplied by the caller,
typically a SAT literal) or with a congruence justification, and
:meth:`EufSolver.explain` recursively expands congruence edges into the set
of input reasons.  Explanations drive strong theory lemmas in the DPLL(T)
loop.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from . import terms as T


class EufConflict(Exception):
    """Raised when the asserted literals are EUF-unsatisfiable.

    ``reasons`` is the set of input reason tags whose conjunction is
    contradictory.
    """

    def __init__(self, reasons: frozenset):
        super().__init__(f"EUF conflict from {len(reasons)} reasons")
        self.reasons = reasons


_CONGRUENCE = "congruence"


class EufSolver:
    """Incremental congruence closure over hash-consed terms."""

    __slots__ = ("_repr", "_rank", "_members", "_use", "_sigs",
                 "_proof_edge", "_diseqs", "_pending", "num_merges",
                 "_frames", "_apps_by_decl")

    def __init__(self):
        self._repr: dict[T.Term, T.Term] = {}          # union-find parent
        self._rank: dict[T.Term, int] = {}
        self._members: dict[T.Term, list[T.Term]] = {}  # repr -> class members
        self._use: dict[T.Term, list[T.Term]] = {}      # repr -> parent apps
        self._sigs: dict[tuple, T.Term] = {}            # signature -> app term
        # Proof forest: node -> (neighbor, label); label is an input reason
        # tag or a (_CONGRUENCE, a, b) triple.
        self._proof_edge: dict[T.Term, tuple] = {}
        self._diseqs: list[tuple[T.Term, T.Term, Hashable]] = []
        self._pending: list[tuple] = []
        self.num_merges = 0
        # Undo log: one op list per open push(); ops are replayed in reverse
        # by pop().  The SMT core opens no scopes (every obligation gets a
        # fresh solver), so it stays empty and no logging overhead is paid;
        # push/pop/commit remain because perfbench/layers.py (EUF_METHODS)
        # times them by name.
        self._frames: list[list[tuple]] = []
        # Persistent E-matching index: uninterpreted applications grouped by
        # declaration, in registration order (the same order a scan of
        # :meth:`all_terms` would visit them).  Maintained by add_term and
        # restored by the "term" undo op, so it survives push/pop exactly.
        self._apps_by_decl: dict[T.FuncDecl, list[T.Term]] = {}

    # -- incremental scopes ---------------------------------------------------

    def push(self) -> None:
        """Open a scope; every structural change after this is undoable.

        Queued congruences are flushed first so the checkpoint is a closed
        state (may raise :class:`EufConflict`).
        """
        self.flush()
        self._frames.append([])

    def pop(self, n: int = 1) -> None:
        """Undo every change made in the ``n`` innermost scopes."""
        for _ in range(n):
            ops = self._frames.pop()
            for op in reversed(ops):
                self._undo(op)
        # Anything still queued was discovered under the popped frames.
        self._pending.clear()

    def commit(self) -> None:
        """Close the innermost scope, keeping its changes.

        The ops are folded into the parent frame (or dropped if this was the
        outermost frame), so an enclosing pop() still undoes them.
        """
        ops = self._frames.pop()
        if self._frames:
            self._frames[-1].extend(ops)

    def _undo(self, op: tuple) -> None:
        tag = op[0]
        if tag == "merge":
            _, ra, rb, old_members, moved_use, rank_bumped, sigs, proof = op
            for node, old in reversed(proof):
                if old is None:
                    del self._proof_edge[node]
                else:
                    self._proof_edge[node] = old
            for sig in reversed(sigs):
                del self._sigs[sig]
            if moved_use:
                del self._use[rb][-len(moved_use):]
            self._use[ra] = moved_use
            if rank_bumped:
                self._rank[rb] -= 1
            del self._members[rb][-len(old_members):]
            self._members[ra] = old_members
            for m in old_members:
                self._repr[m] = ra
            self.num_merges -= 1
        elif tag == "term":
            t = op[1]
            del self._repr[t]
            del self._rank[t]
            del self._members[t]
            del self._use[t]
            if t.kind == T.APP:
                # Ops replay in reverse registration order, so t is always
                # the most recent app of its declaration.
                self._apps_by_decl[t.payload].pop()
        elif tag == "use":
            op[1].pop()
        elif tag == "sig":
            del self._sigs[op[1]]
        elif tag == "diseq":
            self._diseqs.pop()

    # -- registration ---------------------------------------------------------

    def add_term(self, t: T.Term) -> None:
        """Register a term (and its subterms) in the e-graph.

        Registration may discover congruences with existing terms; they are
        queued and merged by the next :meth:`assert_eq`/:meth:`flush` call.
        """
        if t in self._repr:
            return
        for a in t.args:
            if not t.is_quant():
                self.add_term(a)
        if t in self._repr:  # can happen through recursion
            return
        self._repr[t] = t
        self._rank[t] = 0
        self._members[t] = [t]
        self._use[t] = []
        if t.kind == T.APP:
            self._apps_by_decl.setdefault(t.payload, []).append(t)
        log = self._frames[-1] if self._frames else None
        if log is not None:
            log.append(("term", t))
        if t.args and not t.is_quant():
            for a in t.args:
                use = self._use[self.find(a)]
                use.append(t)
                if log is not None:
                    log.append(("use", use))
            self._insert_sig(t)

    def _signature(self, t: T.Term) -> tuple:
        return (t.kind, t.payload, tuple(self.find(a) for a in t.args))

    def _insert_sig(self, t: T.Term) -> None:
        sig = self._signature(t)
        other = self._sigs.get(sig)
        if other is None:
            self._sigs[sig] = t
            if self._frames:
                self._frames[-1].append(("sig", sig))
        elif self.find(other) is not self.find(t):
            self._pending.append((t, other, (_CONGRUENCE, t, other)))

    # -- union-find -------------------------------------------------------------

    def find(self, t: T.Term) -> T.Term:
        r = self._repr
        root = t
        while r[root] is not root:
            root = r[root]
        while r[t] is not root:
            r[t], t = root, r[t]
        return root

    def are_equal(self, a: T.Term, b: T.Term) -> bool:
        if a not in self._repr or b not in self._repr:
            return a is b
        return self.find(a) is self.find(b)

    # -- assertions --------------------------------------------------------------

    def assert_eq(self, a: T.Term, b: T.Term, reason: Hashable) -> None:
        """Assert a = b with an opaque reason tag; may raise EufConflict."""
        self.add_term(a)
        self.add_term(b)
        self._pending.append((a, b, reason))
        self._process_pending()
        self._check_diseqs()

    def flush(self) -> None:
        """Process queued congruences from term registration; may conflict."""
        self._process_pending()
        self._check_diseqs()

    def assert_neq(self, a: T.Term, b: T.Term, reason: Hashable) -> None:
        """Assert a != b; may raise EufConflict immediately."""
        self.add_term(a)
        self.add_term(b)
        self._process_pending()  # registration may have queued congruences
        self._diseqs.append((a, b, reason))
        if self._frames:
            self._frames[-1].append(("diseq",))
        if self.find(a) is self.find(b):
            raise EufConflict(frozenset([reason]) | self.explain(a, b))

    def _process_pending(self) -> None:
        while self._pending:
            a, b, label = self._pending.pop()
            ra, rb = self.find(a), self.find(b)
            if ra is rb:
                continue
            self._check_value_clash(ra, rb, a, b, label)
            self.num_merges += 1
            # Union by rank; keep the constant (if any) as representative so
            # model extraction is easy.
            if self._is_value(ra) or (self._rank[ra] >= self._rank[rb]
                                      and not self._is_value(rb)):
                ra, rb = rb, ra
                a, b = b, a
            # now ra is merged INTO rb
            logging = bool(self._frames)
            proof_log: list[tuple] = []
            self._add_proof_edge(a, b, label,
                                 proof_log if logging else None)
            old_members = self._members.pop(ra)
            for m in old_members:
                self._repr[m] = rb
            self._members[rb].extend(old_members)
            rank_bumped = self._rank[ra] == self._rank[rb]
            if rank_bumped:
                self._rank[rb] += 1
            # Recompute signatures of parents of the absorbed class.
            sig_log: list[tuple] = []
            moved_use = self._use.pop(ra)
            for parent in moved_use:
                sig = self._signature(parent)
                other = self._sigs.get(sig)
                if other is None:
                    self._sigs[sig] = parent
                    if logging:
                        sig_log.append(sig)
                elif self.find(other) is not self.find(parent):
                    self._pending.append(
                        (parent, other, (_CONGRUENCE, parent, other)))
            self._use[rb].extend(moved_use)
            if logging:
                self._frames[-1].append(
                    ("merge", ra, rb, old_members, moved_use, rank_bumped,
                     sig_log, proof_log))

    def _is_value(self, t: T.Term) -> bool:
        return t.is_const()

    def _check_value_clash(self, ra, rb, a, b, label) -> None:
        if self._is_value(ra) and self._is_value(rb) and ra.payload != rb.payload:
            # Merging two distinct constants: conflict. Build the explanation
            # through the edge being added.
            reasons = self._label_reasons(label)
            reasons |= self.explain(a, ra)
            reasons |= self.explain(b, rb)
            raise EufConflict(frozenset(reasons))

    def _check_diseqs(self) -> None:
        for a, b, reason in self._diseqs:
            if self.find(a) is self.find(b):
                raise EufConflict(frozenset([reason]) | self.explain(a, b))

    # -- proof forest ---------------------------------------------------------------

    def _add_proof_edge(self, a: T.Term, b: T.Term, label,
                        undo: Optional[list] = None) -> None:
        # Reroot a's proof tree so `a` becomes its root, then hang it off b.
        path = []
        node = a
        while node in self._proof_edge:
            nxt, lbl = self._proof_edge[node]
            path.append((node, nxt, lbl))
            node = nxt
        for x, y, lbl in reversed(path):
            if undo is not None:
                undo.append((y, self._proof_edge.get(y)))
            self._proof_edge[y] = (x, lbl)
        if undo is not None:
            undo.append((a, self._proof_edge.get(a)))
        if a in self._proof_edge:
            del self._proof_edge[a]
        self._proof_edge[a] = (b, label)

    def explain(self, a: T.Term, b: T.Term) -> frozenset:
        """Input reason tags whose conjunction implies a = b."""
        out: set = set()
        self._explain_into(a, b, out, set())
        return frozenset(out)

    def _explain_into(self, a: T.Term, b: T.Term, out: set, seen: set) -> None:
        if a is b:
            return
        key = (a, b) if a._hash <= b._hash else (b, a)
        if key in seen:
            return  # already expanded into `out`
        seen.add(key)
        # Ancestors of a in the proof forest (a's tree contains b since they
        # are in the same congruence class).
        ancestors = {a}
        cur = a
        while cur in self._proof_edge:
            cur = self._proof_edge[cur][0]
            ancestors.add(cur)
        lca = b
        while lca not in ancestors:
            lca = self._proof_edge[lca][0]
        for start in (a, b):
            cur = start
            while cur is not lca:
                nxt, label = self._proof_edge[cur]
                self._collect_label(label, out, seen)
                cur = nxt

    def _collect_label(self, label, out: set, seen: set) -> None:
        if isinstance(label, tuple) and len(label) == 3 and label[0] is _CONGRUENCE:
            _, t1, t2 = label
            for x, y in zip(t1.args, t2.args):
                self._explain_into(x, y, out, seen)
        else:
            out.add(label)

    def _label_reasons(self, label) -> set:
        out: set = set()
        self._collect_label(label, out, set())
        return out

    # -- queries for E-matching / models -----------------------------------------------

    def classes(self) -> Iterable[list[T.Term]]:
        return self._members.values()

    def class_of(self, t: T.Term) -> list[T.Term]:
        return self._members[self.find(t)]

    def all_terms(self) -> Iterable[T.Term]:
        return self._repr.keys()

    def apps_of(self, decl: T.FuncDecl) -> list[T.Term]:
        """Registered applications of ``decl``, in registration order.

        This is the persistent E-matching index: the same list a fresh
        scan of :meth:`all_terms` would build, without the scan.
        """
        return self._apps_by_decl.get(decl, [])

    def value_of(self, t: T.Term) -> Optional[T.Term]:
        """The constant in t's class, if any (representatives prefer values)."""
        if t not in self._repr:
            return t if t.is_const() else None
        r = self.find(t)
        return r if r.is_const() else None

    def representative(self, t: T.Term) -> T.Term:
        """A readable canonical member of t's congruence class.

        Model export for diagnostics: prefer a constant if the class has
        one, otherwise the smallest member (ties broken by hash so the
        choice is deterministic across runs and processes).
        """
        if t not in self._repr:
            return t
        val = self.value_of(t)
        if val is not None:
            return val
        return min(self.class_of(t), key=lambda m: (m.size(), m._hash))
