"""The mediator: the component that allocates queries (Figure 1).

The mediator receives queries from consumers, asks its configured
:class:`~repro.core.policy.AllocationPolicy` for a decision, dispatches
the query to the allocated providers, and performs the *satisfaction
bookkeeping* that the model of Section II prescribes:

* every **informed** provider records one proposal ``(PI_q[p],
  performed?)`` in its Definition-2 window;
* the **consumer** records the Equation-1 per-query satisfaction over
  the providers that will perform the query, together with the
  adequation (best achievable) value used by the analysis layer;
* the metrics hub is notified of the mediation and, via the consumer's
  completion listener, of the completion.

Consultation cost is modelled: a policy with
``consults_participants=True`` pays one request/reply round-trip to the
consumer and to every consulted provider before the allocation can be
dispatched (the round-trips run in parallel, so the delay is the
maximum over the exchanged pairs), which is exactly why KnBest bounds
the consulted set to ``kn`` providers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.policy import AllocationContext, AllocationDecision, AllocationPolicy
from repro.des.entity import Entity
from repro.des.network import Message, Network
from repro.des.scheduler import Simulator
from repro.des.tracing import NULL_RECORDER, TraceRecorder
from repro.system.query import AllocationRecord, Query, QueryStatus
from repro.system.registry import SystemRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.provider import Provider


class MediationObserver:
    """Protocol of the metrics hub the mediator reports to."""

    def record_mediation(self, record: AllocationRecord) -> None:  # pragma: no cover
        raise NotImplementedError


class Mediator(Entity):
    """Allocates queries using a pluggable policy.

    Parameters
    ----------
    sim, network:
        Simulation kernel bindings.
    registry:
        Source of the capable set ``P_q``.
    policy:
        The allocation technique under study.
    observer:
        Optional metrics hub; every mediation (success or failure) is
        reported to it.
    trace:
        Optional structured trace (Figure-1 pipeline bench).
    adequation_over_candidates:
        When True, the adequation value stored on each record considers
        the whole capable set ``P_q`` (one consumer-intention
        evaluation per candidate -- more faithful to [12], costlier);
        when False (default), the informed set is used.
    keep_records:
        Retain every :class:`AllocationRecord` on the mediator for
        post-run analysis.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        registry: SystemRegistry,
        policy: AllocationPolicy,
        observer: Optional[MediationObserver] = None,
        trace: TraceRecorder = NULL_RECORDER,
        adequation_over_candidates: bool = False,
        keep_records: bool = True,
        name: str = "mediator",
    ) -> None:
        super().__init__(sim, name=name)
        self.network = network
        self.registry = registry
        self.policy = policy
        self.observer = observer
        self.trace = trace
        self.adequation_over_candidates = adequation_over_candidates
        self.keep_records = keep_records
        self.records: List[AllocationRecord] = []
        self.mediations = 0
        self.failures = 0
        self.coordination_messages = 0
        # One reusable context for the hot loop: consumed synchronously
        # by exactly one select per mediation, only ``now`` changes.
        self._ctx = AllocationContext(now=0.0, trace=trace)

    # ------------------------------------------------------------------
    # Entity hook
    # ------------------------------------------------------------------

    #: Fast-engine direct delivery (see Entity.FAST_HANDLERS).
    FAST_HANDLERS = {"query": "mediate"}

    def receive(self, message: Message) -> None:
        if message.kind != "query":
            raise ValueError(f"mediator got unexpected message {message.kind!r}")
        self.mediate(message.payload)

    # ------------------------------------------------------------------
    # Mediation pipeline
    # ------------------------------------------------------------------

    def mediate(self, query: Query) -> AllocationRecord:
        """Run the full pipeline for one query; returns its record."""
        self.mediations += 1
        # The registry's cached P_q snapshot: O(|P_q|) on rebuild, one
        # dict probe between membership/online transitions.  Read-only
        # downstream.
        candidates = self.registry.capable_snapshot(query.topic)
        # Tracing is lazy: the f-string payloads are only built when a
        # recorder is actually listening, so the common (untraced) case
        # costs one attribute check per stage.
        if self.trace.enabled:
            self.trace.record(
                self.now,
                "mediate",
                f"query {query.qid} from {query.consumer_id}: |P_q|={len(candidates)}",
                qid=query.qid,
            )
        if not candidates:
            return self._fail(query)
        ctx = self._ctx
        ctx.now = self.now
        decision = self.policy.select(query, candidates, ctx)
        if not decision.allocated:
            return self._fail(query)
        return self._commit(query, candidates, decision)

    def _fail(self, query: Query) -> AllocationRecord:
        """No provider could perform the query: zero satisfaction, notify."""
        self.failures += 1
        query.status = QueryStatus.FAILED
        record = AllocationRecord(query=query, decided_at=self.now)
        record.adequation = 0.0
        # Equation 1 with an empty performer set: satisfaction is 0.
        query.consumer.record_query_satisfaction(0.0, adequation=0.0)
        self.network.send("mediation-failed", self, query.consumer, payload=record)
        if self.trace.enabled:
            self.trace.record(
                self.now, "fail", f"query {query.qid}: no capable provider"
            )
        self._store(record)
        return record

    def _commit(
        self,
        query: Query,
        candidates: Sequence["Provider"],
        decision: AllocationDecision,
    ) -> AllocationRecord:
        consumer = query.consumer
        allocated = decision.allocated
        informed = decision.informed

        # -- provider-side bookkeeping (Definition 2 windows) -----------
        # The decision's intention dicts are adopted (and completed in
        # place) rather than copied: a decision is consumed exactly once
        # and the record owns the dicts afterwards.  Membership is
        # tested on the provider objects themselves (allocated holds the
        # same objects as informed, and |allocated| <= n is tiny).
        provider_intentions = decision.provider_intentions
        for provider in informed:
            pid = provider.participant_id
            intention = provider_intentions.get(pid)
            if intention is None:
                intention = provider.intention_for(query)
                provider_intentions[pid] = intention
            provider.tracker.record_proposal(intention, provider in allocated)

        # -- consumer-side bookkeeping (Equation 1 / Definition 1) ------
        # consumer_query_satisfaction / adequation inlined: the (i + 1)
        # / 2 unit mapping summed in decision order (never set order, so
        # the float sum cannot depend on PYTHONHASHSEED), then the
        # min(1, total / n) clamp.
        consumer_intentions = decision.consumer_intentions
        n_results = query.n_results
        total = 0.0
        for provider in allocated:
            pid = provider.participant_id
            intention = consumer_intentions.get(pid)
            if intention is None:
                intention = consumer.intention_for(query, provider)
                consumer_intentions[pid] = intention
            total += (intention + 1.0) / 2.0
        satisfaction = total / n_results
        if satisfaction > 1.0:
            satisfaction = 1.0

        adequation_pool = candidates if self.adequation_over_candidates else informed
        pool_intentions = []
        for p in adequation_pool:
            pid = p.participant_id
            intention = consumer_intentions.get(pid)
            if intention is None:
                intention = consumer.intention_for(query, p)
            pool_intentions.append(intention)
        pool_intentions.sort(reverse=True)
        total = 0.0
        for intention in pool_intentions[:n_results]:
            total += (intention + 1.0) / 2.0
        adequation_value = total / n_results
        if adequation_value > 1.0:
            adequation_value = 1.0
        consumer.record_query_satisfaction(satisfaction, adequation=adequation_value)

        # -- consultation cost -------------------------------------------
        consult_delay = 0.0
        if self.policy.consults_participants:
            consult_delay = self._consultation_delay(consumer, informed)
            self.coordination_messages += decision.consult_messages
        # outcome notification to every informed provider
        self.coordination_messages += len(informed)

        record = AllocationRecord(
            query=query,
            decided_at=self.now,
            allocated=allocated,
            informed=informed,
            consumer_intentions=consumer_intentions,
            provider_intentions=provider_intentions,
            scores=decision.scores,
            omegas=decision.omegas,
            adequation=adequation_value,
            consultation_delay=consult_delay,
        )
        query.status = QueryStatus.ALLOCATED
        self._dispatch_record(record, consumer, consult_delay)
        if self.trace.enabled:
            self.trace.record(
                self.now,
                "allocate",
                f"query {query.qid}: -> {sorted(p.participant_id for p in allocated)} "
                f"(informed {len(informed)}, consult_delay={consult_delay:.3f})",
                qid=query.qid,
            )
        self._store(record)
        return record

    def _dispatch_record(
        self, record: AllocationRecord, consumer, consult_delay: float
    ) -> None:
        """Schedule the post-consultation dispatch of one allocation.

        The event-faithful form: one scheduler event at the end of the
        consultation, which sends one ``execute`` message per allocated
        provider plus the ``mediation-ok`` notification ("sends the
        mediation result to the consumer", Section III; consumers use
        it to arm their result deadline).  The fast engine overrides
        this with a collapsed single-event path when the one-way delay
        is a positive constant.
        """

        def dispatch() -> None:
            for provider in record.allocated:
                self.network.send("execute", self, provider, payload=record)
            self.network.send("mediation-ok", self, consumer, payload=record)

        self.sim.schedule_in(
            consult_delay, dispatch, label=f"dispatch:{record.query.qid}"
        )

    def _consultation_delay(self, consumer, informed: Sequence["Provider"]) -> float:
        """Parallel request/reply round-trips: the slowest pair gates."""
        latency = self.network.latency
        worst = latency.delay(self, consumer) + latency.delay(consumer, self)
        for provider in informed:
            rtt = latency.delay(self, provider) + latency.delay(provider, self)
            if rtt > worst:
                worst = rtt
        return worst

    def _store(self, record: AllocationRecord) -> None:
        if self.keep_records:
            self.records.append(record)
        if self.observer is not None:
            self.observer.record_mediation(record)

    def __repr__(self) -> str:
        return (
            f"Mediator(policy={self.policy.name!r}, mediations={self.mediations}, "
            f"failures={self.failures})"
        )
