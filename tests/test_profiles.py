"""Automation profiles: registry detents, the profile-first config API,
portfolio racing (with its determinism contract), race replay from the
proof cache, and the daemon's ``profiles`` verb.

The empirical backbone is the profile-gap corpus in
:mod:`repro.profiles.corpus`: ``mbqi_gap`` is provable only under MBQI
(the ``epr`` profile), ``universe_gap`` only under E-matching (every
non-``epr`` profile), so ``stubborn_pair`` — which contains both — is
beyond every *fixed* profile and needs the portfolio race.
"""

import dataclasses
import json

import pytest

from repro.api import PORTFOLIO_ENV, PROFILE_ENV, Session, VerifyConfig
from repro.cache.store import ProofCache
from repro.profiles import (
    PROFILES,
    RACE_ORDER,
    AutomationProfile,
    UnknownProfileError,
    escalate_config,
    get_profile,
    portfolio_candidates,
    profile_names,
)
from repro.profiles.corpus import (
    CORPUS_BUILDERS,
    build_mbqi_gap_module,
    build_stubborn_pair_module,
    build_universe_gap_module,
)
from repro.smt.fingerprint import solver_config_key
from repro.smt.solver import SmtSolver, SolverConfig, solver_constructions
from repro.vc.errors import PROVED
from tests.test_incremental import _normalize


def _strip_race_bytes(payload: dict) -> dict:
    """Normalize minus module-level ``query_bytes``.

    A cache-warm run *replays* a race instead of re-running it, so it
    never re-pays the race attempts' query bytes: the module total is an
    effort counter here, not a verdict field.  Everything else — the
    race record and the winning profile included — must still match
    byte-for-byte.
    """
    payload = _normalize(payload)
    payload.pop("query_bytes", None)
    return payload


def _raced_obligations(result) -> list:
    return [o for fn in result.functions for o in fn.obligations
            if o.stats.get("portfolio")]


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_shipped_names_and_race_order(self):
        assert list(profile_names()) == ["default", "frugal", "aggressive",
                                         "nonlinear", "bitvector", "epr"]
        assert set(RACE_ORDER) == set(profile_names())
        assert RACE_ORDER[0] == "aggressive"

    def test_default_profile_is_identity(self):
        """The default profile must not perturb solver configs — its
        obligation digests stay byte-identical to a profile-free build."""
        base = SolverConfig()
        assert get_profile("default").apply_solver(base) is base

    def test_profiles_change_cache_key(self):
        base = SolverConfig()
        keys = {name: solver_config_key(get_profile(name).apply_solver(base))
                for name in profile_names()}
        assert keys["default"] == solver_config_key(base)
        # Every non-default profile keys differently from default and
        # from each other: per-profile cache entries never collide.
        assert len(set(map(str, keys.values()))) == len(keys)

    def test_get_profile_passthrough_and_unknown(self):
        aggressive = PROFILES["aggressive"]
        assert get_profile(aggressive) is aggressive
        with pytest.raises(UnknownProfileError) as exc:
            get_profile("warpspeed")
        assert exc.value.name == "warpspeed"
        assert "available" in str(exc.value)

    def test_portfolio_candidates_skip_primary(self):
        assert portfolio_candidates("default", 2) == ("aggressive", "epr")
        assert portfolio_candidates("aggressive", 2) == ("epr", "nonlinear")
        assert portfolio_candidates("default", 0) == ()
        assert len(portfolio_candidates("default", 99)) == len(RACE_ORDER) - 1

    def test_escalate_config_doubles_budgets(self):
        base = SolverConfig(max_steps=1000)
        esc = escalate_config(base)
        assert (esc.max_rounds, esc.max_instantiations) == \
            (2 * base.max_rounds, 2 * base.max_instantiations)
        assert esc.sat_conflict_budget == 2 * base.sat_conflict_budget
        assert esc.max_steps == 4000
        assert escalate_config(SolverConfig()).max_steps is None

    def test_custom_profile_validation(self):
        with pytest.raises(ValueError):
            AutomationProfile(name="bad", doc="", split_strategy="banana")

    def test_describe_is_json_safe(self):
        for name in profile_names():
            json.dumps(get_profile(name).describe())


# ---------------------------------------------------------------------------
# Profile-first config API


class TestConfigApi:
    def test_from_env_profile_and_portfolio(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "epr")
        monkeypatch.setenv(PORTFOLIO_ENV, "2")
        cfg = VerifyConfig.from_env()
        assert cfg.profile == "epr" and cfg.portfolio == 2

    @pytest.mark.parametrize("raw,expect", [
        (None, 0), ("", 0), ("0", 0), ("no", 0),
        ("2", 2), ("yes", 3), ("true", 3),
    ])
    def test_portfolio_env_parse(self, monkeypatch, raw, expect):
        monkeypatch.delenv(PORTFOLIO_ENV, raising=False)
        if raw is not None:
            monkeypatch.setenv(PORTFOLIO_ENV, raw)
        assert VerifyConfig.from_env().portfolio == expect

    def test_knobs_default_from_profile(self):
        cfg = VerifyConfig()
        assert cfg.retries is None and cfg.triage is None
        assert (cfg.effective_retries, cfg.effective_triage) == (0, "on")
        aggr = VerifyConfig(profile="aggressive")
        assert aggr.effective_retries == 1
        assert VerifyConfig(profile="frugal").effective_max_steps == 200000

    def test_explicit_override_beats_profile(self):
        cfg = VerifyConfig(profile="aggressive", retries=0, max_steps=123)
        assert cfg.effective_retries == 0
        assert cfg.effective_max_steps == 123

    def test_unknown_profile_rejected_at_session_open(self):
        with pytest.raises(UnknownProfileError):
            Session(VerifyConfig(profile="warpspeed"))


# ---------------------------------------------------------------------------
# Corpus gaps + portfolio acceptance


class TestProfileGaps:
    def test_corpus_registry(self):
        assert set(CORPUS_BUILDERS) == {"mbqi_gap", "universe_gap",
                                        "stubborn_pair"}

    def test_mbqi_gap_needs_epr(self):
        assert Session(VerifyConfig(profile="epr")).verify_module(
            build_mbqi_gap_module()).ok
        assert not Session(VerifyConfig()).verify_module(
            build_mbqi_gap_module()).ok

    def test_universe_gap_needs_ematching(self):
        assert Session(VerifyConfig()).verify_module(
            build_universe_gap_module()).ok
        assert not Session(VerifyConfig(profile="epr")).verify_module(
            build_universe_gap_module()).ok

    def test_portfolio_beats_every_fixed_profile(self):
        """The headline acceptance: a module no single profile can
        verify goes through once racing is on."""
        for name in profile_names():
            result = Session(VerifyConfig(profile=name)).verify_module(
                build_stubborn_pair_module())
            assert not result.ok, f"profile {name} unexpectedly verified"
        raced = Session(VerifyConfig(portfolio=2)).verify_module(
            build_stubborn_pair_module())
        assert raced.ok
        assert raced.stats.get("portfolio_races", 0) >= 1
        assert raced.stats.get("portfolio_wins", 0) >= 1


# ---------------------------------------------------------------------------
# Determinism


class TestPortfolioDeterminism:
    def test_race_results_identical_across_modes(self, tmp_path):
        """serial / jobs=2 / a cache-warm rerun must adopt the same winner
        and produce byte-identical reports (timing aside; the rerun
        replays the race, so it does not re-pay its query bytes)."""
        cache = str(tmp_path / "cache")
        arms = {
            "serial": VerifyConfig(portfolio=2, cache_dir=cache),
            "jobs2": VerifyConfig(portfolio=2, jobs=2),
            "warm": VerifyConfig(portfolio=2, cache_dir=cache),
        }
        reports = {}
        for label, cfg in arms.items():
            result = Session(cfg).verify_module(build_stubborn_pair_module())
            assert result.ok, label
            raced = _raced_obligations(result)
            assert raced, label
            for ob in raced:
                assert ob.stats["portfolio"]["winner"] == "epr"
                assert ob.stats["profile"] == "epr"
            reports[label] = result.to_json()
        assert _normalize(reports["serial"]) == _normalize(reports["jobs2"])
        assert _strip_race_bytes(reports["serial"]) == \
            _strip_race_bytes(reports["warm"])

    def test_cache_warm_replays_race(self, tmp_path):
        cfg = VerifyConfig(portfolio=2, cache_dir=str(tmp_path / "cache"))
        cold = Session(cfg).verify_module(build_stubborn_pair_module())
        assert cold.ok and cold.stats.get("portfolio_races", 0) >= 1

        before = solver_constructions()
        warm = Session(cfg).verify_module(build_stubborn_pair_module())
        assert warm.ok
        assert solver_constructions() == before, \
            "cache-warm race replay must build zero solvers"
        # A replayed race still counts as a race, but solves nothing.
        assert warm.stats.get("portfolio_races", 0) == \
            cold.stats["portfolio_races"]
        assert warm.stats.get("portfolio_wins", 0) == \
            cold.stats["portfolio_wins"]
        assert warm.stats.get("portfolio_attempts", 0) == 0
        # The replayed verdict carries the same race record and winner.
        raced_cold = _raced_obligations(cold)
        assert raced_cold
        warm_obs = {o.label: o for fn in warm.functions
                    for o in fn.obligations}
        for ob in raced_cold:
            assert warm_obs[ob.label].stats["portfolio"] == \
                ob.stats["portfolio"]
            assert warm_obs[ob.label].stats.get("profile") == \
                ob.stats["portfolio"]["winner"]
        assert _strip_race_bytes(cold.to_json()) == \
            _strip_race_bytes(warm.to_json())

    def test_case_studies_unaffected_by_portfolio(self, tmp_path):
        """Modules with no stubborn obligations never fan out: the
        portfolio flag cannot change their verdicts or their bytes,
        serial vs jobs=2 vs cache-warm."""
        import importlib
        for dotted in [
            "repro.systems.ironkv.delegation_map:build_default_module",
            "repro.systems.nr.model:build_nr_core_module",
            "repro.systems.pagetable.view_verified:build_view_module",
            "repro.systems.mimalloc.verified:build_bit_tricks_module",
            "repro.systems.plog.crc_verified:build_crc_table_module",
        ]:
            mod_path, _, attr = dotted.partition(":")
            build = getattr(importlib.import_module(mod_path), attr)
            cache = str(tmp_path / attr)
            plain = Session(VerifyConfig()).verify_module(build())
            serial = Session(VerifyConfig(portfolio=2,
                                          cache_dir=cache)).verify_module(
                build())
            jobs2 = Session(VerifyConfig(portfolio=2,
                                         jobs=2)).verify_module(build())
            rewarm = Session(VerifyConfig(portfolio=2,
                                          cache_dir=cache)).verify_module(
                build())
            assert plain.ok and serial.ok and jobs2.ok and rewarm.ok
            assert serial.stats.get("portfolio_races", 0) == 0
            expected = _normalize(plain.to_json())
            assert _normalize(serial.to_json()) == expected
            assert _normalize(jobs2.to_json()) == expected
            assert _normalize(rewarm.to_json()) == expected


class TestRaceThenLadder:
    """One attempt plan per stubborn obligation: race candidates first,
    then retry-ladder rungs."""

    def test_genuine_failure_keeps_race_record_and_trail(self):
        from tests.test_resilience import _mk_failing_module
        cfg = VerifyConfig(portfolio=1, retries=1, triage="off")
        result = Session(cfg).verify_module(_mk_failing_module())
        assert not result.ok
        failed = [o for fn in result.functions for o in fn.obligations
                  if not o.ok]
        assert failed
        for ob in failed:
            assert ob.stats["portfolio"]["raced"] == ["aggressive"]
            assert ob.stats["portfolio"]["winner"] is None
            assert ob.stats["escalation"] == ["escalate"]
            assert ob.stats["retries"] == 1

    def test_race_win_skips_the_ladder(self):
        cfg = VerifyConfig(portfolio=2, retries=2)
        result = Session(cfg).verify_module(build_stubborn_pair_module())
        assert result.ok
        raced = _raced_obligations(result)
        assert raced
        for ob in raced:
            assert ob.stats["portfolio"]["winner"] == "epr"
            assert "escalation" not in ob.stats
        assert result.stats.get("retries", 0) == 0


# ---------------------------------------------------------------------------
# Race replay from the proof cache


def _statuses(result) -> dict:
    return {o.label: o.status for fn in result.functions
            for o in fn.obligations}


class TestRaceReplay:
    def test_race_keeps_explicit_max_steps(self, tmp_path, monkeypatch):
        """An explicit ``max_steps`` (a daemon quota admits a request
        with one) bounds every race attempt, and the cache-warm rerun
        replays the race with zero solvers."""
        cap = 10 ** 6
        budgets = []
        real_init = SmtSolver.__init__

        def spy(solver, config=None):
            budgets.append(config.max_steps)
            real_init(solver, config)

        monkeypatch.setattr(SmtSolver, "__init__", spy)
        cfg = VerifyConfig(portfolio=2, max_steps=cap,
                           cache_dir=str(tmp_path / "cache"))
        cold = Session(cfg).verify_module(build_stubborn_pair_module())
        assert cold.ok and cold.stats.get("portfolio_races", 0) >= 1
        assert cold.stats.get("portfolio_attempts", 0) >= 1
        assert budgets and set(budgets) == {cap}

        budgets.clear()
        warm = Session(cfg).verify_module(build_stubborn_pair_module())
        assert warm.ok and warm.stats.get("portfolio_wins", 0) >= 1
        assert warm.stats.get("portfolio_attempts", 0) == 0
        assert budgets == []

    def test_legacy_tuner_entries_are_inert(self, tmp_path):
        """A cache directory written by a build that still kept race
        winners as ``"kind": "tuner"`` records replays its verdicts; the
        record never answers a lookup and is not corruption."""
        root = str(tmp_path / "cache")
        cfg = VerifyConfig(portfolio=2, cache_dir=root)
        cold = Session(cfg).verify_module(build_stubborn_pair_module())
        assert cold.ok
        legacy = "7e" * 32
        record = {"digest": legacy, "kind": "tuner", "profile": "epr",
                  "status": PROVED, "wins": 1}
        store = ProofCache(root)
        assert store.write(record)
        path = store._path(legacy)

        before = solver_constructions()
        warm = Session(cfg, cache=store).verify_module(
            build_stubborn_pair_module())
        assert solver_constructions() == before
        assert warm.ok and _statuses(warm) == _statuses(cold)
        assert warm.stats.get("portfolio_wins", 0) >= 1
        assert store.lookup(legacy) is None
        assert store.corrupt == 0
        assert legacy not in [e["digest"] for e in store.iter_entries()]
        assert json.loads(open(path, encoding="utf-8").read()) == record

    def test_delta_replay_keeps_race_verdicts_out_of_plain_runs(
            self, tmp_path):
        """A function a race rescued is recorded for racing runs only:
        a ``portfolio=0`` run over the same cache must report what a cold
        ``portfolio=0`` run reports, delta on or off, while a racing
        rerun still skips it."""
        plain = Session(VerifyConfig()).verify_module(
            build_stubborn_pair_module())
        assert not plain.ok
        root = str(tmp_path / "cache")
        raced = Session(VerifyConfig(portfolio=2, delta=True,
                                     cache_dir=root)).verify_module(
            build_stubborn_pair_module())
        assert raced.ok
        for delta in (True, False):
            rerun = Session(VerifyConfig(delta=delta,
                                         cache_dir=root)).verify_module(
                build_stubborn_pair_module())
            assert not rerun.ok, f"delta={delta}"
            assert _statuses(rerun) == _statuses(plain), f"delta={delta}"
            assert rerun.stats.get("delta_skips", 0) == 0
        again = Session(VerifyConfig(portfolio=2, delta=True,
                                     cache_dir=root)).verify_module(
            build_stubborn_pair_module())
        assert again.ok and _statuses(again) == _statuses(raced)
        assert again.stats.get("delta_skips", 0) == len(raced.functions)


# ---------------------------------------------------------------------------
# Daemon integration


class TestServerProfiles:
    def test_profiles_verb_and_unknown_profile_error(self, tmp_path):
        from tests.test_server import _Daemon
        cfg = VerifyConfig(cache_dir=str(tmp_path / "cache"))
        with _Daemon(verify_cfg=cfg) as d, d.client("profiles") as c:
            listing = c.profiles()
            assert listing["status"] == "ok"
            result = listing["result"]
            assert [p["name"] for p in result["profiles"]] == \
                list(profile_names())
            assert result["race_order"] == list(RACE_ORDER)
            assert (result["base_profile"], result["base_portfolio"]) == \
                ("default", 0)

            bad = c.verify(
                builder="repro.profiles.corpus:build_stubborn_pair_module",
                config={"profile": "warpspeed"})
            assert bad["status"] == "error"
            assert "warpspeed" in bad["error"]
            assert "available" in bad["error"]

            ok = c.verify(
                builder="repro.systems.plog.crc_verified:build_crc_table_module",
                config={"profile": "frugal", "portfolio": 2})
            assert ok["status"] == "ok" and ok["result"]["ok"]
            assert ok["server"]["portfolio_races"] == 0

    def test_server_races_then_replays(self, tmp_path):
        """A race one request paid for replays on the next: from the
        proof cache with delta off, and as a delta skip with it on."""
        from tests.test_server import _Daemon
        cfg = VerifyConfig(cache_dir=str(tmp_path / "cache"))
        builder = "repro.profiles.corpus:build_stubborn_pair_module"
        with _Daemon(verify_cfg=cfg) as d, d.client("racer") as c:
            first = c.verify(builder=builder, config={"portfolio": 2})
            assert first["status"] == "ok" and first["result"]["ok"]
            assert first["server"]["portfolio_races"] >= 1
            assert first["server"]["portfolio_wins"] >= 1
            assert first["server"]["solvers_built"] > 0

            cached = c.verify(builder=builder,
                              config={"portfolio": 2, "delta": False})
            assert cached["status"] == "ok" and cached["result"]["ok"]
            assert cached["server"]["path"] == "cache"
            assert cached["server"]["solvers_built"] == 0
            assert cached["server"]["portfolio_wins"] == \
                first["server"]["portfolio_wins"]

            skipped = c.verify(builder=builder, config={"portfolio": 2})
            assert skipped["status"] == "ok" and skipped["result"]["ok"]
            assert skipped["server"]["path"] == "delta"
            assert skipped["server"]["solvers_built"] == 0
