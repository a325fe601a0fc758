"""Call-count ratchet for the event path.  No timing.

The sibling of ``test_read_path_calls.py`` and ``test_write_path_calls.py``
for what the simulation kernel costs per interaction.  A seeded
ordering-mix cluster (1 master + 4 slaves: the paper's write path, one
broadcast and ack barrier per commit) runs a few simulated seconds under
``cProfile``.  The calls into ``repro/sim/`` and the ``Process`` objects
built are a pure function of the code and the seed, so both are asserted
per completed interaction (CPython 3.11): 154.1 calls and 5.45 processes
with node jobs run in the waiting process, 386.3 and 10.0 when every node
job was a process of its own and every event relayed its outcome through
a delivery dispatch.  A change that puts a relay back on the event path — a
delivery nobody waits on, a process per job, an event per uncontended
grant, a Python frame per constructor — moves these numbers by whole
units.
"""

import cProfile
import gc
import pstats

from repro.cluster.simcluster import SimDmvCluster
from repro.sim.kernel import Process
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

SCALE = TpcwScale(num_items=80, num_customers=230)
SIM_SECONDS = 20.0


def event_path_costs():
    """(sim calls, processes built, interactions completed) of one seeded run."""
    cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=4, seed=7)
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    cluster.start_browsers(16, MIXES["ordering"], SCALE, think_time_mean=0.5)
    profile = cProfile.Profile()
    gc.collect()  # no earlier garbage's finalizers inside the profile
    profile.enable()
    cluster.run(until=SIM_SECONDS)
    profile.disable()
    stats = pstats.Stats(profile).stats
    sim_calls = sum(
        calls for (path, _line, _name), (_prim, calls, *_rest) in stats.items()
        if "/repro/sim/" in path.replace("\\", "/")
    )
    init = Process.__init__.__code__
    processes = sum(
        calls for (path, line, name), (_prim, calls, *_rest) in stats.items()
        if path == init.co_filename and line == init.co_firstlineno and name == "__init__"
    )
    return sim_calls, processes, cluster.metrics.completed


def test_sim_calls_and_processes_per_interaction():
    sim_calls, processes, completed = event_path_costs()
    assert completed > 300
    assert sim_calls / completed <= 165, f"{sim_calls} sim calls / {completed} interactions"
    assert processes / completed <= 5.6, f"{processes} processes / {completed} interactions"
    assert event_path_costs() == (sim_calls, processes, completed)  # repeats exactly
