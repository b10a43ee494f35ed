"""Tunable automation profiles and portfolio racing.

The public surface of the automation *dial* (see ``registry.py`` for
the detents and the race lineup, and ``corpus.py`` for the seeded
stubborn-obligation fixtures; the race itself runs as part of the
scheduler's attempt plan, ``Scheduler._plan_attempts`` in
:mod:`repro.vc.scheduler`).  Nothing is learned on top of the fixed
detents: each race attempt stores its verdict in the proof cache under
its own digest, so a cache-warm run replays the race with no solver.
Typical use goes through :class:`repro.api.Session`::

    Session(profile="aggressive")            # one fixed detent
    Session(portfolio=2)                     # race 2 profiles on
                                             # stubborn obligations
    REPRO_PROFILE=frugal REPRO_PORTFOLIO=3   # same, from the env
"""

from .registry import (PROFILES, RACE_ORDER, AutomationProfile,
                       UnknownProfileError, escalate_config, get_profile,
                       portfolio_candidates, profile_names)

__all__ = ["AutomationProfile", "UnknownProfileError", "PROFILES",
           "RACE_ORDER", "get_profile", "profile_names",
           "portfolio_candidates", "escalate_config"]
