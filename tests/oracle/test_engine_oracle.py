"""Engine-level differential oracle: randomized mediation workloads.

Each case draws a workload configuration at random -- population size,
latency regime, KnBest pool shape, omega mode, churn, crashes, a
second (non-SbQA) policy that forces the per-query fallback -- and
replays it four ways:

* ``engine="fast"`` with the **fused SoA kernel** (the default);
* ``engine="fast"`` pinned to the **scalar path**
  (``repro.core.engine._PIN_SCALAR``), i.e. the ``policy.select`` +
  ``_commit`` path the fused kernel must reproduce;
* ``engine="event"``, the event-faithful core;
* ``engine="event"`` with every policy swapped for its independent
  reference twin (``tests/oracle/reference_policies.py``) and every
  mediator built as the reference mediator
  (``tests/oracle/reference_mediator.py``), so the product ``select``
  bodies and the product commit bookkeeping are checked against a
  second derivation over whole runs.

All four ``ExperimentResult`` JSON digests must be byte-identical.
The case generator is seeded from ``SBQA_ORACLE_SEED`` when set and
from system entropy otherwise, so CI sweeps a fresh slice of the
workload space on every run while any failure stays reproducible from
the seed in its message.  Fixed cases ride along on every run: one per
latency regime, and one four-shard federation under random latency
whose every query is forwarded across shards.
"""

import json
import os
import random

import pytest

import repro.core.engine as engine_module
import repro.experiments.runner as runner
from repro.allocation.factory import POLICY_NAMES
from repro.api.builder import Experiment
from repro.api.session import Session
from repro.des.tracing import TraceRecorder
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.system.query import reset_query_counter
from tests.oracle.reference_mediator import use_reference_mediators
from tests.oracle.reference_policies import reference_twin

ORACLE_SEED = int(
    os.environ.get("SBQA_ORACLE_SEED", "0")
) or random.SystemRandom().randrange(1, 2**31)

N_CASES = 5

LATENCIES = {
    "zero": (0.0, 0.0),
    "fixed": (0.05, 0.05),  # collapsed dispatch, analytic 2c consultation
    "uniform": (0.02, 0.08),  # random latency: round-trips drawn in working order
}


def _draw_cases():
    rng = random.Random(ORACLE_SEED)
    cases = []
    for index in range(N_CASES):
        k = rng.randrange(4, 21)
        sbqa = {"k": k, "kn": rng.randrange(1, k + 1)}
        if rng.random() < 0.4:
            sbqa["omega"] = round(rng.uniform(0.0, 1.0), 3)
        cases.append(
            {
                "index": index,
                "seed": rng.randrange(1, 2**31),
                "duration": rng.choice((150.0, 200.0, 250.0)),
                "providers": rng.randrange(16, 48),
                "latency": rng.choice(tuple(LATENCIES)),
                "sbqa": sbqa,
                "extra_policy": rng.random() < 0.5,
                "autonomous": rng.random() < 0.5,
                "failures": rng.random() < 0.4,
            }
        )
    return cases


#: Drawn independently of ``SBQA_ORACLE_SEED``, so every run covers
#: every latency regime and the forwarded federation path.
FIXED_CASES = [
    {
        "index": f"{regime}",
        "seed": 20090301 + offset,
        "duration": 200.0,
        "providers": 32,
        "latency": regime,
        "sbqa": {"k": 12, "kn": 5},
        "extra_policy": True,
        "autonomous": True,
        "failures": regime == "uniform",
    }
    for offset, regime in enumerate(LATENCIES)
] + [
    {
        "index": "federated-uniform",
        "seed": 20090311,
        "duration": 200.0,
        "providers": 40,
        "latency": "uniform",
        "sbqa": {"k": 10, "kn": 4},
        "extra_policy": True,
        "autonomous": False,
        "failures": False,
        # Every home shard holds fewer than 40 providers, so every
        # query is forwarded over the merged four-shard pool.
        "federation": {"shards": 4, "forward_threshold": 40},
    }
]

CASES = _draw_cases() + FIXED_CASES


def use_reference_policies(patch):
    """Build every run's policy as its reference twin, and every
    event-engine mediator as the reference mediator, while ``patch``
    lasts."""
    make_policy = runner.make_policy
    patch.setattr(
        runner,
        "make_policy",
        lambda *args, **kwargs: reference_twin(make_policy(*args, **kwargs)),
    )
    use_reference_mediators(patch)


def _case_digest(case, engine, monkeypatch, scalar=False, reference=False):
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_PIN_SCALAR", scalar)
        if reference:
            use_reference_policies(patch)
        builder = (
            Experiment.builder()
            .named(f"oracle-case-{case['index']}")
            .seed(case["seed"])
            .duration(case["duration"])
            .providers(case["providers"])
            .engine(engine)
            .latency(*LATENCIES[case["latency"]])
            .policy("sbqa", **case["sbqa"])
        )
        if case["extra_policy"]:
            builder.policy("capacity")
        if case["autonomous"]:
            builder.autonomous()
        if case["failures"]:
            builder.failures(
                mttf=1200.0, repair_time=60.0, result_timeout=240.0
            )
        if "federation" in case:
            builder.federation(**case["federation"])
        result = Session(builder.build()).run(keep_runs=True)
        forwarded = sum(getattr(run.mediator, "forwarded", 0) for run in result.runs)
        return result.to_json(), forwarded


@pytest.mark.parametrize("case", CASES, ids=[f"case{c['index']}" for c in CASES])
def test_fused_scalar_and_event_digests_agree(case, monkeypatch):
    fused, forwarded = _case_digest(case, "fast", monkeypatch)
    scalar, _ = _case_digest(case, "fast", monkeypatch, scalar=True)
    event, _ = _case_digest(case, "event", monkeypatch)
    reference, _ = _case_digest(case, "event", monkeypatch, reference=True)
    context = f"seed {ORACLE_SEED}, case {case}"
    if "federation" in case:
        assert forwarded > 0, f"no query was forwarded: {context}"
    assert fused == scalar, f"fused kernel diverged from scalar path: {context}"
    assert scalar == event, f"fast engine diverged from event engine: {context}"
    assert event == reference, f"product select diverged from reference: {context}"


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_traced_runs_match_reference(policy, monkeypatch):
    """Tracing on: every product ``select`` and the product mediator
    record the same trace events as the references, on both engines,
    and the runs stay identical."""
    traces, summaries = [], []
    for engine, reference in (("event", True), ("event", False), ("fast", False)):
        with monkeypatch.context() as patch:
            if reference:
                use_reference_policies(patch)
            reset_query_counter()  # qids appear in trace payloads
            recorder = TraceRecorder(enabled=True)
            config = ExperimentConfig(name="traced", duration=60.0, engine=engine)
            result = runner.run_once(config, PolicySpec(name=policy), trace=recorder)
        traces.append([(e.time, e.category, e.message) for e in recorder.events])
        summaries.append(json.dumps(result.summary.as_dict(), sort_keys=True))
    assert traces[1] == traces[0], "event engine trace diverged from reference"
    assert traces[2] == traces[0], "fast engine trace diverged from reference"
    assert summaries[1] == summaries[0]
    assert summaries[2] == summaries[0]
    assert any(category == "mediate" for _, category, _ in traces[0])
    assert any(category == "allocate" for _, category, _ in traces[0])
