"""Every registered plan, pinned: the single source of chaos fingerprints.

Same seed, same counters, same hash.  At 60 sim-s every plan of
:data:`repro.chaos.PLANS` must pass its invariants (all but the one a
plan exists to violate), keep its must-stay-zero counters at zero,
reproduce its untraced fingerprint when traced, and hash to its pin.  The
200 sim-s run is the ``default`` plan at its declared CI setting.

The hashes were re-baselined once, when every update commit became an
epoch (CHANGES.md PR 13 has the old -> new table); ``write-scaleout-60s``
already ran the epoch path and kept its hash; it moved once on its own
when the load-driven class rebalancer was deleted, which had merged one
class and re-homed one in those 60 s.  ``straggler-60s`` moved once on its
own when reads stopped going to a slave that still owed the ack of a
commit its quorum had confirmed.  Every pin moved when a read stopped
preferring a busy slave at its tag over an idle one (CHANGES.md has the
old -> new table).  ``default-60s`` and ``occ-200s`` moved on their
own when updates parked through a master failover stopped reaching the
promoted master all at once and were handed over a bounded number at a
time (CHANGES.md has that table too).  The ``partial`` and open-loop pins were added with
the registry (PR 21): until then CI only ever compared those plans to
themselves.
"""

from dataclasses import replace

import pytest

from repro.chaos import PLANS, run_plan
from repro.chaos.__main__ import main as chaos_main

# plan name -> fingerprint of a 60 sim-s run at the plan's declared seed
PINS_60S = {
    "default": "3b3cbdb3d0466f26",
    "straggler": "e7e557e96d38f915",
    "durability": "856e855026b08be6",
    "write-scaleout": "f1ab03031a663b50",
    "partial": "c44ba387611c7b67",
    "overload": "d5ee2b132a7cf755",
    "overload-undefended": "3fd34b1f74b52d99",
    "diurnal": "e824bd43f03f6259",
    "multi-tenant": "041e2f70582c5cb9",
}

# (plan, duration or None for the declared one, fingerprint)
BASELINES = {f"{name}-60s": (PLANS[name], 60.0, PINS_60S[name]) for name in PLANS}
BASELINES["occ-200s"] = (PLANS["default"], None, "695161670b992b2e")


def test_every_registered_plan_is_pinned():
    assert sorted(PINS_60S) == sorted(PLANS)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_fingerprint_reproduced_bit_for_bit(name):
    plan, duration, fingerprint = BASELINES[name]
    report = run_plan(plan, duration=duration)
    assert report.fingerprint == fingerprint, report.summary()
    failed = {result.name for result in report.invariants if not result.ok}
    assert failed == set(plan.must_violate), report.summary()
    # Opt-in counters (partial replication, overload defenses) must not
    # exist on a run that did not opt in: they are fingerprinted, so they
    # would move the hash the moment they were touched.
    fired = {c for c in plan.must_stay_zero if report.counters.get(c, 0) != 0}
    assert fired == set(), report.summary()
    if duration is None:
        # At its declared length a plan must also show what it exists to show.
        assert plan.failures(report) == []
    else:
        assert run_plan(plan, duration=duration, trace=True).fingerprint == fingerprint


def test_cli_names_the_must_fire_counter_that_stayed_zero(monkeypatch, capsys):
    # A full-replication run never demotes anybody: a plan that claims to
    # exercise demotion must fail, and say which counter stayed zero.
    broken = replace(
        PLANS["default"],
        duration=40.0,
        min_commits=1,
        must_fire=PLANS["default"].must_fire + ("slave.demotions",),
    )
    monkeypatch.setitem(PLANS, "default", broken)
    assert chaos_main(["--plan", "default"]) == 1
    out = capsys.readouterr().out
    assert "FAIL: counter slave.demotions stayed zero" in out
    assert "invariants: ALL OK" in out
    assert out.count("FAIL:") == 1
