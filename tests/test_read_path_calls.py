"""Call-count ratchet for the slave read path.  No timing.

What a read-mostly run costs the host is, to first order, Python calls per
row read.  The two listings below are the heaviest statements of the
browsing mix; under ``cProfile`` their call count is a pure function of
the code and the dataset, so it is asserted as a number.  On CPython 3.11,
BEST_SELLERS costs 7.54 calls per row read with flat index keys and a
primary-key probe with no helper call (7.93 before them, 16.2 with a
closure per expression node and a call per join level, 58.1 before the
read funnel) and NEW_PRODUCTS 8.79 (10.8, 15.0, 51.5); 3.12, which inlines
comprehensions, made fewer before the probe change (7.63 and 9.75).  What
is left per row is the engine's: the read, the version gate, the LRU touch
and the index scan's generator.  A change that puts a call back on the
per-row path — a property, a counter bump, a generator layer — moves
these numbers by whole units and fails here, where a timing check would
drown it in noise.
"""

import cProfile
import gc
import pstats

import pytest

from repro.bench.calibration import BENCH_ROWS_PER_PAGE, BENCH_SCALE
from repro.common.counters import Counters
from repro.common.versions import VersionVector
from repro.core import SlaveReplica
from repro.engine import HeapEngine
from repro.sql import SqlExecutor
from repro.storage.cache import PageCache
from repro.tpcw import TpcwDataGenerator, interactions
from repro.tpcw.schema import SUBJECTS

RUNS = 100
SIX = SUBJECTS[:6]


@pytest.fixture(scope="module")
def slave():
    counters = Counters()
    engine = HeapEngine(
        counters=counters,
        cache=PageCache(1 << 30, counters),
        rows_per_page=BENCH_ROWS_PER_PAGE,
        name="s0",
    )
    replica = SlaveReplica("s0", engine=engine, counters=counters)
    TpcwDataGenerator(BENCH_SCALE, seed=42).populate(engine)
    return replica


def calls_per_row(slave, statement, params_of):
    """(total calls, rows read) of RUNS executions at an empty tag."""
    executor = SqlExecutor(slave.engine)
    txn = slave.begin_read_only(VersionVector())
    for run in range(len(SIX)):  # plan compiled, every page it reads resident
        executor.execute(txn, statement, params_of(run))
    rows_before = slave.counters.get("engine.rows_read")
    profile = cProfile.Profile()
    gc.collect()  # no earlier garbage's finalizers inside the profile
    profile.enable()
    for run in range(RUNS):
        executor.execute(txn, statement, params_of(run))
    profile.disable()
    slave.engine.commit(txn)
    rows = slave.counters.get("engine.rows_read") - rows_before
    return pstats.Stats(profile).total_calls, int(rows)


@pytest.mark.parametrize(
    "statement, params_of, rows, bound",
    [
        (interactions.BEST_SELLERS, lambda run: (0, SIX[run % len(SIX)]), 22_657, 7.7),
        (interactions.NEW_PRODUCTS, lambda run: (SIX[run % len(SIX)],), 4_512, 9.0),
    ],
    ids=["best_sellers", "new_products"],
)
def test_calls_per_row_read(slave, statement, params_of, rows, bound):
    calls, rows_read = calls_per_row(slave, statement, params_of)
    assert rows_read == rows  # the dataset and the plans are what the bound was taken on
    assert calls / rows_read <= bound, f"{calls} calls / {rows_read} rows"
    assert calls_per_row(slave, statement, params_of) == (calls, rows_read)  # repeats exactly
