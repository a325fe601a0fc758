"""Scheduler-side admission control: token buckets + queue-delay watermark.

Sits in front of routing (reads) and master admission (updates) and
decides, per arriving request, whether to serve it or to shed it *now*,
cheaply — before it consumes a connection, a scheduler slot or a master
MPL token.  Two independent signals, both default-off:

* **Per-tenant token buckets** (``admission_rate``/``admission_burst``):
  each tenant gets its own bucket, so one tenant's flash crowd exhausts
  only its own tokens and the other tenants keep their allocation —
  the shed-rate fairness invariant audits exactly this.

* **Queue-delay watermark** (``admission_queue_watermark``): an EWMA of
  the master-admission queueing delay.  When it exceeds the watermark the
  cluster is already bufferbloated — serving more arrivals only grows the
  queue — so new work is shed, cheapest-to-retry first: reads shed at the
  watermark, updates only at ``watermark * SHED_UPDATE_FACTOR``
  (aborted updates waste master work; rejected reads retry against an
  untouched cluster).

Pure state machine on the virtual clock: no events, no RNG, so the
controller's existence cannot perturb a seeded run.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Updates are shed only when the queue-delay EWMA exceeds the
#: watermark by this factor (reads are cheaper to retry: any fresh
#: replica can serve the retry, so they shed first).
SHED_UPDATE_FACTOR = 2.0
#: EWMA smoothing factor for the admission queue-delay estimate.
DELAY_ALPHA = 0.2
#: Half-life (seconds) of the queue-delay signal with no fresh
#: observations.  Without decay the watermark latches: a congested
#: EWMA sheds everything at the door, no update is ever admitted to
#: observe the (now idle) queue, and shedding never stops.
DELAY_HALFLIFE = 5.0


class AdmissionController:
    """Decides admit/shed per request from config knobs (all default-off)."""

    def __init__(self, config) -> None:
        self.rate = config.admission_rate
        self.burst = config.admission_burst if config.admission_burst > 0 else self.rate
        self.watermark = config.admission_queue_watermark
        #: EWMA of observed master-admission queueing delay (seconds).
        self.queue_delay = 0.0
        self._delay_stamp = 0.0
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self.rejects_by_tenant: Dict[str, int] = {}
        self.rejects_by_cause: Dict[str, int] = {}

    def _decay(self, now: float) -> None:
        # The congestion signal must expire on its own: when the watermark
        # sheds everything at the door no update is admitted, so no fresh
        # delay observation would ever pull the EWMA back down and the
        # controller would latch shut forever (a self-inflicted metastable
        # state).  Exponential decay between observations breaks the latch.
        if now > self._delay_stamp:
            self.queue_delay *= 0.5 ** ((now - self._delay_stamp) / DELAY_HALFLIFE)
        self._delay_stamp = max(self._delay_stamp, now)

    def observe_queue_delay(self, delay: float, now: float) -> None:
        """Feed one measured admission-queue delay into the EWMA."""
        self._decay(now)
        self.queue_delay += DELAY_ALPHA * (delay - self.queue_delay)

    def _spend_token(self, tenant: str, now: float) -> bool:
        tokens, last = self._buckets.get(tenant, (self.burst, now))
        if now > last:
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            last = now
        if tokens >= 1.0:
            self._buckets[tenant] = (tokens - 1.0, last)
            return True
        self._buckets[tenant] = (tokens, last)
        return False

    def admit(self, kind: str, tenant: str, now: float) -> Optional[str]:
        """Return None to admit, or a shed cause (``token-bucket`` /
        ``queue-delay``) to reject ``kind`` (``read`` | ``update``)."""
        self._decay(now)
        cause: Optional[str] = None
        if self.rate > 0 and not self._spend_token(tenant, now):
            cause = "token-bucket"
        elif self.watermark > 0:
            threshold = self.watermark * (SHED_UPDATE_FACTOR if kind == "update" else 1.0)
            if self.queue_delay > threshold:
                cause = "queue-delay"
        if cause is not None:
            self.rejects_by_tenant[tenant] = self.rejects_by_tenant.get(tenant, 0) + 1
            self.rejects_by_cause[cause] = self.rejects_by_cause.get(cause, 0) + 1
        return cause
