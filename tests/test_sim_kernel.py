"""Unit tests for the discrete-event simulation kernel."""

import hashlib
import random

import pytest

from repro.cluster.costs import CostConfig, CostModel
from repro.cluster.simnodes import SimNode
from repro.common.errors import NodeUnavailable
from repro.sim import Event, Interrupt, Resource, Simulator, Timeout


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now() == 0.0

    def test_schedule_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["x", "y", "z"]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.schedule(15.0, fired.append, 2)
        sim.run(until=10.0)
        assert fired == [1]
        assert sim.now() == 10.0
        sim.run()
        assert fired == [1, 2]

    def test_run_until_advances_clock_with_empty_heap(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now() == 42.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)


class TestProcesses:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        seen = []

        def proc():
            yield sim.timeout(4.0)
            seen.append(sim.now())

        sim.spawn(proc())
        sim.run()
        assert seen == [4.0]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 99

        p = sim.spawn(proc())
        assert sim.run_until_complete(p) == 99

    def test_wait_on_child_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(3.0)
            return "done"

        def parent():
            result = yield sim.spawn(child())
            return (result, sim.now())

        p = sim.spawn(parent())
        assert sim.run_until_complete(p) == ("done", 3.0)

    def test_wait_on_event_value(self):
        sim = Simulator()
        evt = sim.event()

        def waiter():
            value = yield evt
            return value

        def trigger():
            yield sim.timeout(2.0)
            evt.succeed("payload")

        p = sim.spawn(waiter())
        sim.spawn(trigger())
        assert sim.run_until_complete(p) == "payload"

    def test_wait_on_already_triggered_event(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed(7)

        def waiter():
            value = yield evt
            return value

        p = sim.spawn(waiter())
        assert sim.run_until_complete(p) == 7

    def test_failed_event_raises_in_waiter(self):
        sim = Simulator()
        evt = sim.event()

        def waiter():
            try:
                yield evt
            except RuntimeError as exc:
                return f"caught:{exc}"

        def failer():
            yield sim.timeout(1.0)
            evt.fail(RuntimeError("boom"))

        p = sim.spawn(waiter())
        sim.spawn(failer())
        assert sim.run_until_complete(p) == "caught:boom"

    def test_unhandled_process_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("oops")

        sim.spawn(bad())
        with pytest.raises(ValueError, match="oops"):
            sim.run()

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.spawn(bad())
        with pytest.raises(TypeError):
            sim.run()

    def test_double_trigger_rejected(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed(1)
        with pytest.raises(RuntimeError):
            evt.succeed(2)

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Timeout(sim, -0.5)


class TestInterrupt:
    def test_interrupt_delivered(self):
        sim = Simulator()
        log = []

        def proc():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                log.append(("interrupted", exc.cause, sim.now()))

        p = sim.spawn(proc())

        def killer():
            yield sim.timeout(5.0)
            p.interrupt("node-failure")

        sim.spawn(killer())
        sim.run()
        assert log == [("interrupted", "node-failure", 5.0)]

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        p = sim.spawn(quick())
        sim.run()
        p.interrupt("late")  # must not raise
        assert p.triggered

    def test_uncaught_interrupt_cancels_silently(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        p = sim.spawn(proc())
        sim.schedule(1.0, p.interrupt, "kill")
        sim.run()  # must not raise
        assert p.triggered and p.dead

    def test_process_continues_after_caught_interrupt(self):
        sim = Simulator()

        def proc():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(2.0)
            return sim.now()

        p = sim.spawn(proc())
        sim.schedule(10.0, p.interrupt, None)
        assert sim.run_until_complete(p) == 12.0

    def test_alive_flag(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)

        p = sim.spawn(proc())
        sim.run(until=1.0)
        assert p.alive
        sim.run()
        assert not p.alive


class TestAnyOf:
    def test_first_wins(self):
        sim = Simulator()

        def slow():
            yield sim.timeout(10.0)
            return "slow"

        def fast():
            yield sim.timeout(2.0)
            return "fast"

        def waiter():
            event, value = yield sim.any_of([sim.spawn(slow(), "s"), sim.spawn(fast(), "f")])
            return value, sim.now()

        p = sim.spawn(waiter())
        assert sim.run_until_complete(p) == ("fast", 2.0)


# -- dispatch order pin --------------------------------------------------------------------
#
# Every cluster fingerprint rests on the kernel resuming processes in one
# exact ``(time, seq)`` order.  The seeded mix below exercises each path a
# resume can take — equal-``when`` and zero-delay timeouts, a contended
# capacity-1 resource, ``AnyOf`` / ``AllOf``, waits on already-triggered
# and on failed events, an unhandled failure surfacing from ``run``,
# interrupts while queued and while holding, and node jobs under
# ``SimNode.fail`` — and logs ``(now, process, outcome)`` at every resume.
# A kernel change that drops or merges dispatches must leave the log, and so
# its hash, unchanged.

DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)


def _mix_log(seed):
    rng = random.Random(seed)
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    signals = [sim.event() for _ in range(6)]
    done = sim.event()
    done.succeed("early")

    def note(name, outcome):
        log.append((sim.now(), name, outcome))

    def child(name, delay):
        yield sim.timeout(delay)
        note(name, "child-slept")
        return f"{name}-child"

    def op(name, kind, arg):
        if kind == "sleep":
            yield sim.timeout(arg)
            return "slept"
        if kind == "hold":
            yield from res.hold(arg)
            return "held"
        if kind == "acquire":
            yield from res.acquire()
            try:
                note(name, "granted")
                yield sim.timeout(arg)
            finally:
                res.release()
            return "released"
        if kind == "any":
            first = sim.timeout(arg)
            event, value = yield sim.any_of([first, signals[int(arg * 2) % len(signals)]])
            return ("any", event is first, value)
        if kind == "all":
            return ("all", (yield sim.all_of([sim.timeout(arg), sim.timeout(arg / 2), done])))
        if kind == "signal":
            return ("signal", (yield signals[int(arg * 4) % len(signals)]))
        if kind == "child":
            return (yield sim.spawn(child(name, arg), name=f"{name}-child"))
        return ("done", (yield done))

    def worker(name, plan, catch):
        for kind, arg in plan:
            try:
                outcome = yield from op(name, kind, arg)
            except ValueError as exc:
                outcome = ("error", str(exc))
            except Interrupt as exc:
                if not catch:
                    note(name, ("dying", exc.cause))
                    raise
                outcome = ("interrupted", exc.cause)
            note(name, outcome)
        return name

    kinds = ("sleep", "hold", "acquire", "any", "all", "signal", "child", "done")
    workers = []
    for index in range(24):
        plan = [(rng.choice(kinds), rng.choice(DELAYS[2:])) for _ in range(rng.randint(2, 6))]
        workers.append(sim.spawn(worker(f"w{index}", plan, catch=index % 5 != 0), f"w{index}"))

    def triggers():
        for index, signal in enumerate(signals):
            yield sim.timeout(rng.choice(DELAYS))
            if index % 3 == 2:
                signal.fail(ValueError(f"sig{index}"))
            else:
                signal.succeed(f"sig{index}")
            note("triggers", index)

    def interrupter():
        for _ in range(10):
            yield sim.timeout(rng.choice(DELAYS))
            victim = rng.randrange(len(workers))
            note("interrupter", (victim, workers[victim].alive))
            workers[victim].interrupt(f"kick@{sim.now()}")

    def unhandled():
        yield sim.timeout(1.0)
        note("unhandled", "raising")
        raise KeyError("nobody waits")

    sim.spawn(triggers(), "triggers")
    sim.spawn(interrupter(), "interrupter")
    sim.spawn(unhandled(), "unhandled")
    for until in (1.0, 3.0, None):
        while True:
            try:
                sim.run(until=until)
                break
            except KeyError as exc:
                note("run", ("raised", str(exc)))
    log.append(("end", sim.now(), [(w.ok, w.dead, w.value) for w in workers]))
    log.append(("resource", res.in_use, res.queue_length))
    return log


class _Node(SimNode):
    class engine:  # the failure path rolls back whatever the engine holds
        @staticmethod
        def abort_all_active(reason):
            pass


def _on_node(node, gen):
    """``gen`` as a job of ``node``: inside the calling process where the
    node offers ``run_job``, else as the job process ``node.job`` spawns."""
    if hasattr(node, "run_job"):
        return (yield from node.run_job(gen))
    return (yield node.job(gen))


def _node_log():
    sim = Simulator()
    cost = CostModel(CostConfig(cores_per_node=1))
    node_a, node_b = _Node(sim, "a", cost), _Node(sim, "b", cost)
    log = []

    def note(name, outcome):
        log.append((sim.now(), name, outcome))

    def work(node, hold, value):
        yield sim.timeout(0.25)
        yield from node.cpu.hold(hold)
        return value

    def caller(name, node, hold, start, tries=1):
        yield sim.timeout(start)
        for _ in range(tries):
            try:
                note(name, ("ok", (yield from _on_node(node, work(node, hold, name)))))
            except NodeUnavailable as exc:
                note(name, ("unavailable", str(exc)))

    def squatter():
        yield from node_b.cpu.hold(4.0)  # a plain holder: no job of the node
        note("squatter", "released")

    sim.spawn(caller("quick", node_a, 0.1, 0.0), "quick")
    sim.spawn(caller("holding", node_a, 5.0, 0.5), "holding")
    sim.spawn(squatter(), "squatter")
    sim.spawn(caller("queued", node_b, 1.0, 0.125, tries=2), "queued")
    sim.schedule(1.5, node_a.fail)
    sim.schedule(2.0, node_b.fail)
    sim.run()
    log.append(("end", sim.now(), node_a.cpu.in_use, node_b.cpu.in_use,
                node_b.cpu.queue_length))
    return log


def _digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16]


class TestDispatchOrderPin:
    def test_seeded_mix_resumes_in_the_pinned_order(self):
        logs = [_mix_log(seed) for seed in (0, 1, 2)]
        assert all(len(log) > 100 for log in logs)
        assert [_digest(log) for log in logs] == [
            "431d57d4265ba845", "f8adbcb9292d462a", "e5adf9e5ecc23612",
        ]

    def test_node_jobs_under_fail_resume_in_the_pinned_order(self):
        log = _node_log()
        assert _digest(log) == "bd791e295a04ff38"
