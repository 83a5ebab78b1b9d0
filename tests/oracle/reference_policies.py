"""Reference policies: independent ``select`` bodies for the built-ins.

Each product policy implements one ``select``, written for the hot path
(decorate-sorts over inlined load reads, batched intention consultation,
one-pass scoring).  The classes here re-derive every decision the
straightforward way -- through the providers' public properties,
:meth:`KnBestSelector.select`'s two explicit stages, per-provider
:func:`~repro.core.scoring.sqlb_score` calls and
:func:`~repro.core.scoring.rank_providers` -- so the differential tests
can hold the product to bit-identical decisions.

Every reference class subclasses its product policy and overrides only
``select``: construction, parameters, random streams and mutable state
(round-robin cursor, BOINC grant ledger) are shared code.
:func:`reference_twin` swaps a freshly built product policy to its twin
in place, which is how whole runs execute on reference policies (see
``tests/oracle/test_engine_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.allocation.boinc_shares import BoincSharesPolicy
from repro.allocation.capacity import CapacityBasedPolicy
from repro.allocation.economic import EconomicPolicy
from repro.allocation.factory import make_policy
from repro.allocation.simple import RandomPolicy, RoundRobinPolicy, ShortestQueuePolicy
from repro.core.knbest import KnBestSelector
from repro.core.policy import AllocationDecision, allocation_count
from repro.core.sbqa import SbQAPolicy
from repro.core.scoring import (
    DEFAULT_EPSILON,
    ScoredProvider,
    rank_providers,
    sqlb_score,
)


# ----------------------------------------------------------------------
# KnBest and scoring
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KnBestSelection:
    """Outcome of the two KnBest stages for one query."""

    sampled: Tuple  # the set K (stage 1)
    working: Tuple  # the set Kn (stage 2), least utilized first

    @property
    def k_effective(self) -> int:
        """|K| -- may be below k when few providers are online."""
        return len(self.sampled)

    @property
    def kn_effective(self) -> int:
        """|Kn| -- may be below kn when |K| < kn."""
        return len(self.working)


class ReferenceKnBestSelector(KnBestSelector):
    """KnBest with both stages spelled out, in two index spaces."""

    def select(self, candidates: Sequence) -> KnBestSelection:
        """Stage 1 samples ``K``; stage 2 keeps the ``kn`` least
        utilized of it, utilization ties broken on ``participant_id``."""
        sampled = self._stream.sample(candidates, self.k)
        by_load = sorted(sampled, key=lambda p: (p.utilization, p.participant_id))
        return KnBestSelection(sampled=tuple(sampled), working=tuple(by_load[: self.kn]))

    def sample_working_ordinals(
        self, candidates: Sequence, ranks: Sequence[int]
    ) -> Tuple[int, List[Tuple[float, int, int]]]:
        """Both stages in snapshot-ordinal space (the fused kernel's form).

        ``ranks[s]`` must be the position of ``candidates[s]`` in the
        ``participant_id``-sorted order of the snapshot; integer ranks
        are order-isomorphic to the ids within one snapshot, so the
        ``(utilization, rank)`` sort breaks ties like the id sort.
        Stage 1 draws *indices* through
        :meth:`~repro.des.rng.RandomStream.sample_indices`, which
        consumes the same ``getrandbits`` sequence as sampling the
        elements.  Returns ``(|K|, [(utilization, rank, ordinal), ...])``.
        """
        indices = self._stream.sample_indices(len(candidates), self.k)
        decorated = [(candidates[s].utilization, ranks[s], s) for s in indices]
        decorated.sort()
        return len(indices), decorated[: self.kn]


def score_pairs(
    pairs: Sequence[Tuple[str, float, float]],
    omega_for: Callable[[str], float],
    epsilon: float = DEFAULT_EPSILON,
) -> List[ScoredProvider]:
    """Score ``(provider_id, PI, CI)`` triples with a per-provider omega.

    Equation 2 makes omega depend on the satisfaction of the *pair*
    (consumer, provider), so each provider is scored under its own
    balance; ``omega_for`` supplies it.
    """
    result = []
    for provider_id, provider_intention, consumer_intention in pairs:
        omega = omega_for(provider_id)
        result.append(
            ScoredProvider(
                provider_id=provider_id,
                score=sqlb_score(provider_intention, consumer_intention, omega, epsilon),
                omega=omega,
                provider_intention=provider_intention,
                consumer_intention=consumer_intention,
            )
        )
    return result


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------


class ReferenceSbQAPolicy(SbQAPolicy):
    """KnBest + SQLB, one provider at a time."""

    def __init__(self, config, stream) -> None:
        super().__init__(config, stream)
        self.selector.__class__ = ReferenceKnBestSelector

    def select(self, query, candidates, ctx) -> AllocationDecision:
        consumer = query.consumer
        selection = self.selector.select(candidates)
        working = list(selection.working)
        if ctx.trace.enabled:
            ctx.trace.record(
                ctx.now,
                "knbest",
                f"query {query.qid}: |P_q|={len(candidates)} -> |K|={selection.k_effective} "
                f"-> |Kn|={selection.kn_effective}",
                qid=query.qid,
            )

        consumer_satisfaction = consumer.satisfaction
        by_id = {p.participant_id: p for p in working}
        intentions = [
            (p.participant_id, p.intention_for(query), consumer.intention_for(query, p))
            for p in working
        ]
        scored = score_pairs(
            intentions,
            omega_for=lambda pid: self.omega_policy.omega(
                consumer_satisfaction, by_id[pid].satisfaction
            ),
            epsilon=self.config.epsilon,
        )
        ranking = rank_providers(scored)
        take = allocation_count(query, len(working))
        allocated = [by_id[entry.provider_id] for entry in ranking[:take]]
        if ctx.trace.enabled:
            ctx.trace.record(
                ctx.now,
                "sqlb",
                f"query {query.qid}: ranked {[e.provider_id for e in ranking]}, "
                f"allocated {sorted(e.provider_id for e in ranking[:take])}",
                qid=query.qid,
            )
        return AllocationDecision(
            allocated=allocated,
            informed=working,
            consumer_intentions={s.provider_id: s.consumer_intention for s in scored},
            provider_intentions={s.provider_id: s.provider_intention for s in scored},
            scores={entry.provider_id: entry.score for entry in ranking},
            omegas={s.provider_id: s.omega for s in scored},
            consult_messages=2 * len(working) + 2,
            metadata={"k_effective": selection.k_effective},
        )


class ReferenceCapacityPolicy(CapacityBasedPolicy):
    def select(self, query, candidates, ctx) -> AllocationDecision:
        ranked = sorted(
            candidates,
            key=lambda p: (-p.available_capacity, -p.capacity, p.participant_id),
        )
        allocated = ranked[: allocation_count(query, len(ranked))]
        if ctx.trace.enabled:
            ctx.trace.record(
                ctx.now,
                "capacity",
                f"query {query.qid}: -> {[p.participant_id for p in allocated]}",
                qid=query.qid,
            )
        return AllocationDecision(allocated=allocated)


class ReferenceEconomicPolicy(EconomicPolicy):
    def select(self, query, candidates, ctx) -> AllocationDecision:
        bids = {p.participant_id: self.bid(p, query) for p in candidates}
        ranked = sorted(
            candidates, key=lambda p: (bids[p.participant_id], p.participant_id)
        )
        allocated = ranked[: allocation_count(query, len(ranked))]
        if ctx.trace.enabled:
            ctx.trace.record(
                ctx.now,
                "economic",
                f"query {query.qid}: cheapest bids "
                f"{[(p.participant_id, round(bids[p.participant_id], 3)) for p in allocated]}",
                qid=query.qid,
            )
        return AllocationDecision(
            allocated=allocated,
            informed=list(candidates),
            consult_messages=2 * len(candidates),
            metadata={"bids": bids},
        )


class ReferenceBoincSharesPolicy(BoincSharesPolicy):
    def select(self, query, candidates, ctx) -> AllocationDecision:
        consumer_id = query.consumer_id
        willing = []
        for provider in candidates:
            debt = self.debt(provider, consumer_id, ctx.now)
            if debt == float("-inf"):
                continue  # zero share: the provider refuses this project
            if debt + self.overdraft * provider.capacity < query.service_demand:
                continue  # entitlement exhausted
            willing.append((provider, debt))
        if not willing:
            if ctx.trace.enabled:
                ctx.trace.record(
                    ctx.now,
                    "boinc-shares",
                    f"query {query.qid}: no provider with share budget for {consumer_id}",
                    qid=query.qid,
                )
            return AllocationDecision(allocated=[])

        willing.sort(key=lambda item: (-item[1], item[0].participant_id))
        take = allocation_count(query, len(willing))
        allocated = [provider for provider, _ in willing[:take]]
        for provider in allocated:
            key = (provider.participant_id, consumer_id)
            self._granted[key] = self._granted.get(key, 0.0) + query.service_demand
        if ctx.trace.enabled:
            ctx.trace.record(
                ctx.now,
                "boinc-shares",
                f"query {query.qid}: -> {[p.participant_id for p in allocated]}",
                qid=query.qid,
            )
        return AllocationDecision(allocated=allocated)


class ReferenceRandomPolicy(RandomPolicy):
    def select(self, query, candidates, ctx) -> AllocationDecision:
        take = allocation_count(query, len(candidates))
        return AllocationDecision(allocated=self._stream.sample(list(candidates), take))


class ReferenceRoundRobinPolicy(RoundRobinPolicy):
    def select(self, query, candidates, ctx) -> AllocationDecision:
        ordered = sorted(candidates, key=lambda p: p.participant_id)
        take = allocation_count(query, len(ordered))
        allocated = [
            ordered[(self._cursor + offset) % len(ordered)] for offset in range(take)
        ]
        self._cursor = (self._cursor + take) % len(ordered)
        return AllocationDecision(allocated=allocated)


class ReferenceShortestQueuePolicy(ShortestQueuePolicy):
    def select(self, query, candidates, ctx) -> AllocationDecision:
        ranked = sorted(candidates, key=lambda p: (p.backlog_seconds, p.participant_id))
        return AllocationDecision(allocated=ranked[: allocation_count(query, len(ranked))])


#: Product policy class -> its reference twin.
REFERENCE_TWINS = {
    SbQAPolicy: ReferenceSbQAPolicy,
    CapacityBasedPolicy: ReferenceCapacityPolicy,
    EconomicPolicy: ReferenceEconomicPolicy,
    BoincSharesPolicy: ReferenceBoincSharesPolicy,
    RandomPolicy: ReferenceRandomPolicy,
    RoundRobinPolicy: ReferenceRoundRobinPolicy,
    ShortestQueuePolicy: ReferenceShortestQueuePolicy,
}


def reference_twin(policy):
    """Switch a product policy to its reference twin, in place.

    The twin adds no state, so the swapped object keeps its parameters,
    random stream and counters; only ``select`` changes.
    """
    policy.__class__ = REFERENCE_TWINS[type(policy)]
    if isinstance(policy, ReferenceSbQAPolicy):
        policy.selector.__class__ = ReferenceKnBestSelector
    return policy


def make_reference_policy(name, root, sbqa=None, params=None):
    """:func:`~repro.allocation.factory.make_policy`, as a reference twin."""
    return reference_twin(make_policy(name, root, sbqa=sbqa, params=params))
