"""Call-count ratchet for the write path's fan-in.  No timing.

The sibling of ``test_read_path_calls.py`` for the other half of the host
cost: what one committed row change costs once it reaches the slaves.  A
seeded ordering-mix stream runs through one master; its write-sets are then
delivered, the way a cluster node delivers them (duplicate filter, then
receive), to eight slaves under ``cProfile``.  The call count is a pure
function of the code and the stream, so it is asserted as a number: 37.2
calls per op-delivery when every slave re-derived every op's index keys
from the row images and ran the duplicate filter twice, 23.1 once the
master derived one index delta per op for all eight slaves to loop over,
21.8 once an index entry was four elements of a flat bucket instead of
an object built per slave, 19.6 with shared queue heads and committed
entries, 18.8 now that a key is one flat tuple and an op that moves no key
does no index work (CPython 3.11).  A change that puts key
derivation, a sort or a second filter pass back on the per-replica path
moves the number by whole units.
"""

import cProfile
import gc
import pstats

from repro.storage.ops import ENCODE_STATS
from tests.test_index_delta import loaded_slaves, tpcw_cluster

SLAVES = 8


def deliver_to_fresh_slaves(write_sets):
    """(total calls, op-deliveries, index deltas derived) of the fan-in."""
    slaves = loaded_slaves(SLAVES)
    derived = ENCODE_STATS["index_deltas"]
    profile = cProfile.Profile()
    # Collect earlier tests' garbage now: a collection inside the profile
    # would count the finalizers of their abandoned generators.
    gc.collect()
    profile.enable()
    for write_set in write_sets:
        for slave in slaves:
            if not slave.is_duplicate(write_set):
                slave.receive_new(write_set)
    profile.disable()
    delivered = sum(slave.counters.get("slave.ops_buffered") for slave in slaves)
    assert all(slave.counters.get("net.dups_ignored") == 0 for slave in slaves)
    return (pstats.Stats(profile).total_calls, int(delivered),
            ENCODE_STATS["index_deltas"] - derived)


def test_calls_per_op_delivery():
    derived = ENCODE_STATS["index_deltas"]
    write_sets = tpcw_cluster(stream_length=250, seed=5).write_sets
    ops = sum(len(write_set.ops) for write_set in write_sets)
    assert (len(write_sets), ops) == (119, 439)  # the stream the bound was taken on
    # One derivation per op, by the master, however many replicas apply it ...
    assert ENCODE_STATS["index_deltas"] - derived == ops
    calls, delivered, derived_on_slaves = deliver_to_fresh_slaves(write_sets)
    assert delivered == ops * SLAVES
    assert derived_on_slaves == 0  # ... and none on the slaves
    assert calls / delivered <= 20.0, f"{calls} calls / {delivered} op-deliveries"
    assert deliver_to_fresh_slaves(write_sets) == (calls, delivered, 0)  # repeats exactly
