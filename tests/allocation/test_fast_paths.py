"""Decision differential: every product ``select`` vs its reference twin.

Each built-in policy's ``select`` is written for the hot path
(decorate-sorts over inlined load reads, batched consultation); the
twins in ``tests/oracle/reference_policies.py`` re-derive the same
decisions through the providers' public properties.  Two instances per
technique (same seeds) run side by side over hypothesis-drawn load,
share, preference and demand states, and must agree on every decision
field: allocated, informed, both intention maps, scores, omegas,
consult accounting and metadata floats.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation.factory import POLICY_NAMES, make_policy
from repro.core.engine import FastMediator, FastNetwork
from repro.core.intentions import PreferenceUtilizationIntentions
from repro.core.policy import AllocationContext, AllocationDecision, AllocationPolicy
from repro.core.sbqa import SbQAConfig
from repro.des.network import Network
from repro.des.rng import RandomRoot, RandomStream
from repro.des.scheduler import Simulator
from repro.des.tracing import NULL_RECORDER
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.query import Query
from repro.system.registry import SystemRegistry
from tests.oracle.reference_policies import make_reference_policy

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@pytest.fixture
def population():
    sim = Simulator()
    network = Network(sim)
    stream = RandomStream(41)
    providers = [
        Provider(
            sim,
            network,
            participant_id=f"p{i:02d}",
            capacity=stream.uniform(0.5, 2.0),
            preferences={"c0": stream.uniform(-1.0, 1.0)},
            resource_shares={"c0": stream.uniform(0.0, 2.0), "other": 1.0},
        )
        for i in range(14)
    ]
    consumer = Consumer(
        sim,
        network,
        participant_id="c0",
        preferences={p.participant_id: stream.uniform(-1.0, 1.0) for p in providers},
    )
    return sim, providers, consumer


def assert_decisions_equal(a, b):
    assert [p.participant_id for p in a.allocated] == [
        p.participant_id for p in b.allocated
    ]
    assert [p.participant_id for p in a.informed] == [
        p.participant_id for p in b.informed
    ]
    assert a.consumer_intentions == b.consumer_intentions
    assert a.provider_intentions == b.provider_intentions
    assert a.consult_messages == b.consult_messages
    assert a.metadata == b.metadata  # exact float equality (economic bids)
    assert a.scores == b.scores
    assert a.omegas == b.omegas


@st.composite
def worlds(draw):
    """A provider population, a consumer and an SbQA parameterisation."""
    n = draw(st.integers(min_value=1, max_value=16))
    sim = Simulator()
    network = Network(sim)
    shared = PreferenceUtilizationIntentions() if draw(st.booleans()) else None
    share = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
    providers = [
        Provider(
            sim,
            network,
            participant_id=f"p{i:02d}",
            capacity=draw(st.floats(min_value=0.25, max_value=4.0)),
            preferences={"c0": draw(unit)},
            intention_model=shared,
            resource_shares=draw(
                st.dictionaries(st.sampled_from(("c0", "other")), share, max_size=2)
            ),
        )
        for i in range(n)
    ]
    consumer = Consumer(
        sim,
        network,
        participant_id="c0",
        preferences={p.participant_id: draw(unit) for p in providers},
    )
    k = draw(st.integers(min_value=1, max_value=12))
    omega = draw(st.one_of(st.just("adaptive"), st.floats(min_value=0.0, max_value=1.0)))
    sbqa = SbQAConfig(k=k, kn=draw(st.integers(min_value=1, max_value=k)), omega=omega)
    return sim, providers, consumer, sbqa


round_states = st.tuples(
    st.floats(min_value=0.0, max_value=30.0),  # clock advance
    st.floats(min_value=0.5, max_value=25.0),  # service demand
    st.integers(min_value=1, max_value=4),  # n_results
    st.integers(min_value=0, max_value=2**31),  # backlog jitter seed
)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@given(world=worlds(), rounds=st.lists(round_states, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_select_fast_matches_select(policy_name, world, rounds):
    """The product ``select`` (the hot-path form) reproduces the
    reference ``select`` field for field, from the same evolving state."""
    sim, providers, consumer, sbqa = world
    product = make_policy(policy_name, RandomRoot(77), sbqa=sbqa)
    reference = make_reference_policy(policy_name, RandomRoot(77), sbqa=sbqa)
    snapshot = tuple(providers)
    for advance, demand, n_results, jitter_seed in rounds:
        # Advance the clock and randomize backlogs so utilization, bids,
        # debts and queue depths all vary between rounds.
        sim.run_until(sim.now + advance)
        jitter = RandomStream(jitter_seed)
        for p in providers:
            p._busy_until = sim.now + jitter.uniform(-20.0, 120.0)
        query = Query(
            consumer=consumer,
            topic="c0",
            service_demand=demand,
            n_results=n_results,
            issued_at=sim.now,
        )
        ctx = AllocationContext(now=sim.now, trace=NULL_RECORDER)
        expected = reference.select(query, snapshot, ctx)
        got = product.select(query, snapshot, ctx)
        assert_decisions_equal(expected, got)
        # Keep the satisfaction state evolving so adaptive omegas move.
        for p in expected.informed:
            p.record_proposal(
                expected.provider_intentions.get(p.participant_id, 0.0),
                p in expected.allocated,
            )
        consumer.record_query_satisfaction(0.5)


def test_round_robin_snapshot_cache_tracks_new_snapshots(population):
    """The id-sort cache keys on snapshot identity: a different tuple
    (e.g. after churn) must re-sort, not reuse the stale order."""
    sim, providers, consumer = population
    policy = make_policy("round-robin", RandomRoot(1))
    ctx = AllocationContext(now=0.0, trace=NULL_RECORDER)

    def query():
        return Query(
            consumer=consumer,
            topic="c0",
            service_demand=1.0,
            n_results=1,
            issued_at=0.0,
        )

    policy.select(query(), tuple(providers), ctx)
    shrunk = tuple(providers[5:])
    second = policy.select(query(), shrunk, ctx)
    assert second.allocated[0] in providers[5:]


def test_select_only_policy_runs_on_the_fast_engine(population):
    """A third-party policy implements ``select`` alone; the fast
    mediator calls it and commits its (validated) decision."""

    class MinimalPolicy(AllocationPolicy):
        name = "minimal"

        def select(self, query, candidates, ctx):
            return AllocationDecision(allocated=[candidates[0]])

    sim, providers, consumer = population
    network = FastNetwork(sim)
    registry = SystemRegistry()
    for p in providers:
        registry.add_provider(p)
    registry.add_consumer(consumer)
    mediator = FastMediator(sim, network, registry, MinimalPolicy())
    query = Query(
        consumer=consumer,
        topic="c0",
        service_demand=1.0,
        n_results=1,
        issued_at=0.0,
    )
    record = mediator.mediate(query)
    assert record.allocated == [providers[0]]
    assert mediator.records == [record]
