"""Reference mediator: an independent derivation of the commit bookkeeping.

The product :meth:`repro.core.mediator.Mediator._commit` is written for
the hot path: it adopts the decision's intention dicts, inlines the
Equation-1 and adequation sums and writes the Definition-2 windows
through the trackers directly.  :class:`ReferenceMediator` re-derives
the same bookkeeping the straightforward way -- copied dicts, a
provider-id set for the performed flag,
:func:`~repro.core.satisfaction.consumer_query_satisfaction` and
:func:`~repro.core.satisfaction.adequation` -- so the differential
tests can hold the product to bit-identical records and windows.

It overrides only ``_commit``: the consultation delay, the dispatch
and the record store are the product stages it shares.
:func:`use_reference_mediators` builds every event-engine mediator of a
run (flat or federated) as the reference while a monkeypatch context
lasts (see ``tests/oracle/test_engine_oracle.py``).
"""

from __future__ import annotations

import repro.experiments.runner as runner
import repro.federation.mediator as federation_mediator
from repro.core.mediator import Mediator
from repro.core.satisfaction import adequation as compute_adequation
from repro.core.satisfaction import consumer_query_satisfaction
from repro.federation.mediator import _ShardForwarding
from repro.system.query import AllocationRecord, QueryStatus


class ReferenceMediator(Mediator):
    """The event-faithful mediator with the textbook ``_commit``."""

    def _commit(self, query, candidates, decision) -> AllocationRecord:
        consumer = query.consumer
        allocated_ids = {p.participant_id for p in decision.allocated}

        # -- provider-side bookkeeping (Definition 2 windows) -----------
        provider_intentions = dict(decision.provider_intentions)
        for provider in decision.informed:
            pid = provider.participant_id
            if pid not in provider_intentions:
                provider_intentions[pid] = provider.intention_for(query)
            provider.record_proposal(provider_intentions[pid], pid in allocated_ids)

        # -- consumer-side bookkeeping (Equation 1 / Definition 1) ------
        consumer_intentions = dict(decision.consumer_intentions)
        for provider in decision.allocated:
            pid = provider.participant_id
            if pid not in consumer_intentions:
                consumer_intentions[pid] = consumer.intention_for(query, provider)
        # Iterate in decision order, not set order: Equation-1 float
        # summation must not depend on PYTHONHASHSEED.
        performer_intentions = [
            consumer_intentions[p.participant_id] for p in decision.allocated
        ]
        satisfaction = consumer_query_satisfaction(performer_intentions, query.n_results)

        adequation_pool = candidates if self.adequation_over_candidates else decision.informed
        pool_intentions = [
            consumer_intentions[p.participant_id]
            if p.participant_id in consumer_intentions
            else consumer.intention_for(query, p)
            for p in adequation_pool
        ]
        adequation_value = compute_adequation(pool_intentions, query.n_results)
        consumer.record_query_satisfaction(satisfaction, adequation=adequation_value)

        # -- consultation cost -------------------------------------------
        consult_delay = 0.0
        if self.policy.consults_participants:
            consult_delay = self._consultation_delay(consumer, decision.informed)
            self.coordination_messages += decision.consult_messages
        # outcome notification to every informed provider
        self.coordination_messages += len(decision.informed)

        record = AllocationRecord(
            query=query,
            decided_at=self.now,
            allocated=list(decision.allocated),
            informed=list(decision.informed),
            consumer_intentions=consumer_intentions,
            provider_intentions=provider_intentions,
            scores=dict(decision.scores),
            omegas=dict(decision.omegas),
            adequation=adequation_value,
            consultation_delay=consult_delay,
        )
        query.status = QueryStatus.ALLOCATED
        self._dispatch_record(record, consumer, consult_delay)
        if self.trace.enabled:
            self.trace.record(
                self.now,
                "allocate",
                f"query {query.qid}: -> {sorted(allocated_ids)} "
                f"(informed {len(record.informed)}, consult_delay={consult_delay:.3f})",
                qid=query.qid,
            )
        self._store(record)
        return record


class ReferenceShardMediator(_ShardForwarding, ReferenceMediator):
    """One federation shard on the reference mediator."""


def use_reference_mediators(patch):
    """Build event-engine mediators as references while ``patch`` lasts."""
    make_mediator = runner.make_mediator

    def make(engine, *args, **kwargs):
        if engine == "event":
            return ReferenceMediator(*args, **kwargs)
        return make_mediator(engine, *args, **kwargs)

    patch.setattr(runner, "make_mediator", make)
    patch.setattr(federation_mediator, "EventShardMediator", ReferenceShardMediator)
