"""Micro-benchmarks M1: the allocator's hot paths.

Times the three kernels every mediation executes -- the SQLB score, the
KnBest selection and a full mediator round trip -- so regressions in
the per-query cost are caught independently of scenario noise.
"""

from repro.allocation.capacity import CapacityBasedPolicy
from repro.core.knbest import KnBestSelector
from repro.core.mediator import Mediator
from repro.core.policy import AllocationContext
from repro.core.sbqa import SbQAConfig, SbQAPolicy
from repro.core.scoring import sqlb_score
from repro.des.network import Network
from repro.des.rng import RandomRoot, RandomStream
from repro.des.scheduler import Simulator
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.query import Query
from repro.system.registry import SystemRegistry


def build_system(n_providers=100, seed=13):
    sim = Simulator()
    network = Network(sim)
    registry = SystemRegistry()
    root = RandomRoot(seed)
    stream = root.stream("micro/prefs")
    providers = [
        Provider(
            sim,
            network,
            participant_id=f"p{i:03d}",
            capacity=stream.uniform(0.5, 2.0),
            preferences={"c0": stream.uniform(-1.0, 1.0)},
        )
        for i in range(n_providers)
    ]
    for provider in providers:
        registry.add_provider(provider)
    consumer = Consumer(
        sim,
        network,
        participant_id="c0",
        preferences={p.participant_id: stream.uniform(-1.0, 1.0) for p in providers},
    )
    registry.add_consumer(consumer)
    return sim, network, registry, consumer, providers


def bench_sqlb_score_kernel(benchmark):
    """Definition 3, both branches, 200 evaluations per round."""
    pairs = [((i % 20) / 10.0 - 1.0, ((i * 7) % 20) / 10.0 - 1.0) for i in range(200)]

    def kernel():
        total = 0.0
        for pi, ci in pairs:
            total += sqlb_score(pi, ci, 0.5)
        return total

    benchmark(kernel)


def bench_knbest_selection(benchmark):
    """Two-stage selection over 100 candidates."""
    _, _, registry, _, providers = build_system()
    selector = KnBestSelector(k=20, kn=10, stream=RandomStream(5))
    benchmark(lambda: selector.sample_working(providers))


def bench_sbqa_policy_select(benchmark):
    """One full SbQA decision (sample, consult, score, rank)."""
    sim, network, registry, consumer, providers = build_system()
    policy = SbQAPolicy(SbQAConfig(k=20, kn=10), RandomStream(3))
    ctx = AllocationContext(now=0.0)

    def decide():
        query = Query(
            consumer=consumer, topic="c0", service_demand=10.0, n_results=2,
            issued_at=sim.now,
        )
        return policy.select(query, providers, ctx)

    benchmark(decide)


def bench_full_mediation_sbqa(benchmark):
    """Mediator round trip including bookkeeping and dispatch scheduling."""
    sim, network, registry, consumer, providers = build_system()
    policy = SbQAPolicy(SbQAConfig(k=20, kn=10), RandomStream(3))
    mediator = Mediator(sim, network, registry, policy, keep_records=False)

    def mediate():
        query = Query(
            consumer=consumer, topic="c0", service_demand=10.0, n_results=2,
            issued_at=sim.now,
        )
        return mediator.mediate(query)

    benchmark.pedantic(mediate, rounds=20, iterations=50)


def bench_full_mediation_capacity(benchmark):
    """Baseline mediator round trip (no consultation) for comparison."""
    sim, network, registry, consumer, providers = build_system()
    mediator = Mediator(sim, network, registry, CapacityBasedPolicy(), keep_records=False)

    def mediate():
        query = Query(
            consumer=consumer, topic="c0", service_demand=10.0, n_results=2,
            issued_at=sim.now,
        )
        return mediator.mediate(query)

    benchmark.pedantic(mediate, rounds=20, iterations=50)
