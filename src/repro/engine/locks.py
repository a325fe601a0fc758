"""Page-granular lock manager with deadlock detection.

Masters (and the on-disk baseline engine) serialize conflicting update
transactions with two-phase locking at page granularity — the paper's
"internal two-phase-locking per-page concurrency control".

The manager is synchronous: :meth:`LockManager.acquire` either grants
immediately or returns a queued :class:`LockRequest`.  Callers that can
suspend (the simulated node executor) wait for the request's grant
callback; callers that cannot must treat an ungranted request as a
would-block condition.  Deadlocks are detected eagerly on enqueue via a
wait-for graph cycle check, and the *requester* is chosen as victim.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Optional, Set

from repro.common.errors import DeadlockDetected
from repro.common.ids import TxnId


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(requested: LockMode, held: LockMode) -> bool:
    return requested is LockMode.SHARED and held is LockMode.SHARED


class LockRequest:
    """One acquisition attempt; doubles as the grant notification handle."""

    __slots__ = ("txn_id", "resource", "mode", "granted", "_callbacks")

    def __init__(self, txn_id: TxnId, resource: Hashable, mode: LockMode) -> None:
        self.txn_id = txn_id
        self.resource = resource
        self.mode = mode
        self.granted = False
        self._callbacks: List[Callable[["LockRequest"], None]] = []

    def on_grant(self, fn: Callable[["LockRequest"], None]) -> None:
        if self.granted:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _grant(self) -> None:
        self.granted = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _LockState:
    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: Dict[TxnId, LockMode] = {}
        self.queue: Deque[LockRequest] = deque()


def _make_fast_grant() -> LockRequest:
    request = LockRequest(-1, None, LockMode.SHARED)
    request.granted = True
    return request


#: Shared pre-granted request returned for immediate grants.  Callers only
#: ever check ``granted`` / register ``on_grant`` on granted requests (both
#: behave identically on the singleton), so no per-grant allocation is needed.
FAST_GRANT: LockRequest = _make_fast_grant()


class LockManager:
    """S/X locks over arbitrary hashable resources (pages, here)."""

    def __init__(self) -> None:
        self._states: Dict[Hashable, _LockState] = {}
        # Insertion-ordered (dict-as-set): release/promote order must not
        # depend on hash randomization or replayed runs diverge.
        self._held_by_txn: Dict[TxnId, Dict[Hashable, None]] = {}
        #: Count of queued (not yet granted) requests per transaction; lets
        #: ``release_all`` skip the all-states purge scan in the common case.
        self._queued_by_txn: Dict[TxnId, int] = {}
        self.grants = 0
        self.waits = 0
        self.deadlocks = 0
        #: Immediate grants on previously unlocked resources, served without
        #: allocating a :class:`LockRequest`.  Plain attribute (not a
        #: ``Counters`` entry) so legacy fingerprints are unaffected; the OCC
        #: controller surfaces it as ``engine.lock_fast_grants``.
        self.fast_grants = 0

    # -- acquisition -----------------------------------------------------------
    def acquire(self, txn_id: TxnId, resource: Hashable, mode: LockMode) -> LockRequest:
        """Request ``mode`` on ``resource``; may grant immediately or queue.

        Raises :class:`DeadlockDetected` (victim = requester) if queuing the
        request would close a wait-for cycle.
        """
        state = self._states.get(resource)
        if state is None or (not state.holders and not state.queue):
            # Uncontended: grant without allocating a request object.
            if state is None:
                state = self._states[resource] = _LockState()
            state.holders[txn_id] = mode
            self._held_by_txn.setdefault(txn_id, {})[resource] = None
            self.grants += 1
            self.fast_grants += 1
            return FAST_GRANT

        held = state.holders.get(txn_id)
        if held is not None and (held is mode or held is LockMode.EXCLUSIVE):
            return FAST_GRANT  # reentrant or already-stronger

        request = LockRequest(txn_id, resource, mode)
        if self._grantable(state, request):
            self._do_grant(state, request)
            return request

        state.queue.append(request)
        self._queued_by_txn[txn_id] = self._queued_by_txn.get(txn_id, 0) + 1
        self.waits += 1
        if self._in_cycle(txn_id):
            state.queue.remove(request)
            self._unqueue(txn_id)
            self.deadlocks += 1
            raise DeadlockDetected(
                f"txn {txn_id} would deadlock acquiring {mode.value} on {resource}"
            )
        return request

    def _unqueue(self, txn_id: TxnId, count: int = 1) -> None:
        remaining = self._queued_by_txn.get(txn_id, 0) - count
        if remaining > 0:
            self._queued_by_txn[txn_id] = remaining
        else:
            self._queued_by_txn.pop(txn_id, None)

    def _grantable(self, state: _LockState, request: LockRequest) -> bool:
        other_holders = [
            m for t, m in state.holders.items() if t != request.txn_id
        ]
        upgrade = request.txn_id in state.holders
        if any(not _compatible(request.mode, m) for m in other_holders):
            return False
        if upgrade:
            # Upgrades skip the queue (they already hold S), so only the
            # other holders matter.
            return True
        # FIFO fairness: a fresh request waits behind any queued request.
        return not state.queue

    def _do_grant(self, state: _LockState, request: LockRequest) -> None:
        state.holders[request.txn_id] = request.mode
        self._held_by_txn.setdefault(request.txn_id, {})[request.resource] = None
        self.grants += 1
        request._grant()

    # -- release ---------------------------------------------------------------
    def release_all(self, txn_id: TxnId) -> None:
        """Release every lock and queued request of ``txn_id``."""
        resources = self._held_by_txn.pop(txn_id, {})
        touched: Dict[Hashable, None] = dict.fromkeys(resources)
        # Purge queued (never-granted) requests on any resource; skipped
        # entirely when the transaction never queued (the common case).
        if self._queued_by_txn.pop(txn_id, 0):
            for resource, state in self._states.items():
                before = len(state.queue)
                if before:
                    state.queue = deque(r for r in state.queue if r.txn_id != txn_id)
                    if len(state.queue) != before:
                        touched.setdefault(resource, None)
        for resource in resources:
            state = self._states[resource]
            state.holders.pop(txn_id, None)
        for resource in touched:
            self._promote(self._states[resource])
        # Drop empty states to bound memory over long runs.
        for resource in touched:
            state = self._states[resource]
            if not state.holders and not state.queue:
                del self._states[resource]

    def _promote(self, state: _LockState) -> None:
        """Grant queued requests now compatible, preserving FIFO order."""
        while state.queue:
            request = state.queue[0]
            other_holders = [
                m for t, m in state.holders.items() if t != request.txn_id
            ]
            if any(not _compatible(request.mode, m) for m in other_holders):
                break
            state.queue.popleft()
            self._unqueue(request.txn_id)
            self._do_grant(state, request)
            if request.mode is LockMode.EXCLUSIVE:
                break

    # -- introspection ------------------------------------------------------------
    def held(self, txn_id: TxnId) -> Set[Hashable]:
        return set(self._held_by_txn.get(txn_id, ()))

    def mode_held(self, txn_id: TxnId, resource: Hashable) -> Optional[LockMode]:
        state = self._states.get(resource)
        return state.holders.get(txn_id) if state else None

    def holders_of(self, resource: Hashable) -> Dict[TxnId, LockMode]:
        state = self._states.get(resource)
        return dict(state.holders) if state else {}

    def held_by_other(self, resource: Hashable, txn_id: TxnId) -> bool:
        """Does a transaction other than ``txn_id`` hold ``resource``, in any mode?"""
        holders = self._states[resource].holders if resource in self._states else ()
        return len(holders) > 1 or (bool(holders) and txn_id not in holders)

    def is_locked(self, resource: Hashable) -> bool:
        state = self._states.get(resource)
        return bool(state and (state.holders or state.queue))

    def exclusively_locked(self, resource: Hashable) -> bool:
        """True if any transaction holds X on ``resource`` (dirty-page test)."""
        state = self._states.get(resource)
        return bool(state) and LockMode.EXCLUSIVE in state.holders.values()

    def exclusively_locked_by_other(self, resource: Hashable, txn_id: TxnId) -> bool:
        """True if a transaction other than ``txn_id`` holds X on ``resource``."""
        state = self._states.get(resource)
        if state is None:
            return False
        for holder, mode in state.holders.items():
            if mode is LockMode.EXCLUSIVE and holder != txn_id:
                return True
        return False

    # -- deadlock detection ------------------------------------------------------
    def _wait_edges(self) -> Dict[TxnId, Set[TxnId]]:
        edges: Dict[TxnId, Set[TxnId]] = {}
        for state in self._states.values():
            blockers: List[TxnId] = list(state.holders)
            for request in state.queue:
                waits_on = edges.setdefault(request.txn_id, set())
                for blocker in blockers:
                    if blocker != request.txn_id:
                        waits_on.add(blocker)
                blockers.append(request.txn_id)  # FIFO: also waits on queue predecessors
        return edges

    def _in_cycle(self, start: TxnId) -> bool:
        edges = self._wait_edges()
        stack = list(edges.get(start, ()))
        seen: Set[TxnId] = set()
        while stack:
            txn = stack.pop()
            if txn == start:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(edges.get(txn, ()))
        return False
