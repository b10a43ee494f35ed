"""Tests for the NR case study (§4.2.2)."""

import threading

import pytest

from repro.sync import ProtocolViolation
from repro.systems.nr.log import NodeReplicated, NrLog, Replica, SequentialDS
from repro.systems.nr.model import build_nr_core_module


class TestSequentialDS:
    def test_ops(self):
        ds = SequentialDS()
        ds.apply_write(("set", "k", 1))
        assert ds.read("k") == 1
        ds.apply_write(("del", "k", None))
        assert ds.read("k") is None

    def test_clone_isolated(self):
        ds = SequentialDS()
        ds.apply_write(("set", "k", 1))
        c = ds.clone()
        c.apply_write(("set", "k", 2))
        assert ds.read("k") == 1


class TestNrRuntime:
    def test_basic_replication(self):
        nr = NodeReplicated(num_replicas=2, ghost=True)
        nr.write(0, ("set", "a", 1))
        assert nr.read(1, "a") == 1

    def test_reads_after_writes_linearize(self):
        nr = NodeReplicated(num_replicas=3, ghost=True)
        for i in range(20):
            nr.write(i % 3, ("set", f"k{i}", i))
        for r in range(3):
            for i in range(20):
                assert nr.read(r, f"k{i}") == i

    def test_concurrent_convergence(self):
        nr = NodeReplicated(num_replicas=4, ghost=True)
        errors = []

        def writer(rid):
            try:
                for j in range(25):
                    nr.write(rid, ("set", f"k{rid}_{j}", j))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(r,))
                   for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for r in range(4):
            nr.replicas[r].sync_up()
        states = [nr.replicas[r].ds.state for r in range(4)]
        assert all(s == states[0] for s in states)
        assert len(states[0]) == 100

    def test_ghost_tail_never_lags_physical_tail(self):
        """Regression: append must admit the ghost tail before bumping the
        physical one — combiners snapshot `log.tail` without the log lock,
        and a stale ghost tail makes reader_version's `end <= tail`
        require fail.  Aggressive GIL switching reproduced this reliably
        before the ordering fix."""
        import sys
        old = sys.getswitchinterval()
        sys.setswitchinterval(0.0001)
        try:
            for _ in range(4):
                nr = NodeReplicated(num_replicas=3, ghost=True)
                errors = []

                def writer(rid):
                    try:
                        for j in range(30):
                            nr.write(rid, ("set", f"k{rid}_{j}", j))
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [threading.Thread(target=writer, args=(r,))
                           for r in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors, errors
        finally:
            sys.setswitchinterval(old)

    def test_ghost_versions_track_log(self):
        nr = NodeReplicated(num_replicas=2, ghost=True)
        nr.write(0, ("set", "x", 1))
        nr.write(0, ("set", "y", 2))
        replica = nr.replicas[0]
        assert replica.version == nr.log.tail
        assert replica._version_token.value == replica.version

    def test_unregistered_token_rejected(self):
        log = NrLog(ghost=True)
        Replica(0, log)
        with pytest.raises(ProtocolViolation):
            # registering the same node twice violates map freshness
            Replica(0, log)


class TestNrModelObligations:
    """Verify a representative subset of the VerusSync obligations.

    The full model (all 7 transitions × 4 invariants) is checked by the
    Figure 9 macrobenchmark; here we keep the quick core, verified once
    per class.
    """

    @pytest.fixture(scope="class")
    def results(self):
        from repro.api import Session, VerifyConfig
        res = Session(VerifyConfig()).verify_module(build_nr_core_module())
        return {f.name: f for f in res.functions}

    @pytest.mark.parametrize("fn_name", [
        "initialize#establishes",
        "register_node#preserves_versions_bounded",
        "register_node#fresh",
        "append#preserves_tail_nonneg",
        "append#preserves_versions_bounded",
        "reader_finish#fresh",
        "version_in_log#property",
    ])
    def test_obligation(self, results, fn_name):
        assert fn_name in results
        result = results[fn_name]
        assert result.ok, result.failures()

    def test_broken_variant_caught(self):
        # A finish that publishes an unbounded version must break the
        # versions-bounded invariant.
        from repro.lang import INT, forall, map_empty, var
        from repro.sync import SyncSystem

        sys_ = SyncSystem("nr_broken")
        sys_.field("tail", "variable", vtype=INT)
        sys_.field("local_versions", "map", key=INT, value=INT)
        node = sys_.param("node_id", INT)
        end = sys_.param("end", INT)
        sys_.init("initialize") \
            .init_field("tail", 0) \
            .init_field("local_versions", map_empty(INT, INT))
        sys_.transition("publish_unchecked",
                        params=[("node_id", INT), ("end", INT)]) \
            .remove("local_versions", node) \
            .add("local_versions", node, end)  # no bound on end!
        sys_.invariant(
            "versions_bounded",
            lambda sv: forall(
                [("nn", INT)],
                sv("local_versions").contains_key(var("nn", INT)).implies(
                    sv("local_versions").map_index(var("nn", INT))
                    <= sv("tail"))))
        # small budgets: concluding "not provable" should not burn the
        # full instantiation allowance
        from repro.smt.solver import SolverConfig
        from repro.vc.wp import VcConfig
        res = sys_.check(VcConfig(solver_config=SolverConfig(
            max_rounds=12, max_instantiations=600)))
        assert not res.ok
