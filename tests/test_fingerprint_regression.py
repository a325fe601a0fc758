"""Pinned chaos counter fingerprints — the single source CI reads too.

Same seed, same counters, same hash: every plan below must reproduce its
pinned fingerprint bit-for-bit, and a full-replication closed-loop run
must emit none of the opt-in partial-replication or overload counters.
The two 200 sim-s runs are the CI chaos-smoke anchors, the 60 sim-s runs
pin every other plan.

The hashes were re-baselined once, when every update commit became an
epoch (CHANGES.md PR 13 has the old -> new table); ``write-scaleout-60s``
already ran the epoch path and kept its hash.
"""

import pytest

from repro.chaos.__main__ import main as chaos_main

# (cli args, pinned fingerprint)
BASELINES = {
    "default-60s": ("--seed 7 --duration 60", "a4dcf51e3c0dd9c8"),
    "straggler-60s": (
        "--plan straggler --ack-policy quorum --seed 7 --duration 60",
        "81a1f6d288e6f08c",
    ),
    "durability-60s": (
        "--plan durability --seed 0 --duration 60",
        "fed99d8418d4b146",
    ),
    "write-scaleout-60s": (
        "--plan write-scaleout --seed 7 --duration 60",
        "2317579ec4ec277e",
    ),
    "occ-200s": ("--seed 7 --min-commits 500", "7e64d31772f0a2b1"),
    "2pl-200s": (
        "--seed 7 --min-commits 500 --read-concurrency 2pl",
        "545e771dd5436738",
    ),
}


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_fingerprint_reproduced_bit_for_bit(name, capsys):
    args, fingerprint = BASELINES[name]
    rc = chaos_main(args.split() + ["--expect-fingerprint", fingerprint])
    out = capsys.readouterr().out
    assert rc == 0, out
    # The partial-mode counters must not exist on a full-replication run
    # (they would change the fingerprint the moment they were touched).
    for counter in (
        "net.bytes_saved_partial",
        "net.write_sets_filtered",
        "sched.coverage_rejects",
        "sched.partial_master_fallbacks",
        # Overload defenses are opt-in: none of these may fire (or even be
        # touched) on a closed-loop run with defenses off.
        "sched.admission_rejects",
        "sched.deadline_cancels",
        "bench.retries_exhausted",
        "traffic.requests_injected",
        "traffic.retry_budget_exhausted",
        "traffic.breaker_short_circuits",
    ):
        assert f"{counter}=0" in out, f"{counter} fired on a default run"
