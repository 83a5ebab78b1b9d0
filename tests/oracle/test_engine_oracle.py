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
  reference twin (``tests/oracle/reference_policies.py``), so the
  product ``select`` bodies are checked against a second derivation of
  every decision over whole runs.

All four ``ExperimentResult`` JSON digests must be byte-identical.
The case generator is seeded from ``SBQA_ORACLE_SEED`` when set and
from system entropy otherwise, so CI sweeps a fresh slice of the
workload space on every run while any failure stays reproducible from
the seed in its message.
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
from tests.oracle.reference_policies import reference_twin

ORACLE_SEED = int(
    os.environ.get("SBQA_ORACLE_SEED", "0")
) or random.SystemRandom().randrange(1, 2**31)

N_CASES = 5

LATENCIES = {
    "zero": (0.0, 0.0),
    "fixed": (0.05, 0.05),  # the collapsed-dispatch / fused path
    "uniform": (0.02, 0.08),  # random latency: fused gate stays off
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


CASES = _draw_cases()


def use_reference_policies(patch):
    """Build every run's policy as its reference twin while ``patch`` lasts."""
    make_policy = runner.make_policy
    patch.setattr(
        runner,
        "make_policy",
        lambda *args, **kwargs: reference_twin(make_policy(*args, **kwargs)),
    )


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
        return Session(builder.build()).run(keep_runs=False).to_json()


@pytest.mark.parametrize("case", CASES, ids=[f"case{c['index']}" for c in CASES])
def test_fused_scalar_and_event_digests_agree(case, monkeypatch):
    fused = _case_digest(case, "fast", monkeypatch)
    scalar = _case_digest(case, "fast", monkeypatch, scalar=True)
    event = _case_digest(case, "event", monkeypatch)
    reference = _case_digest(case, "event", monkeypatch, reference=True)
    context = f"seed {ORACLE_SEED}, case {case}"
    assert fused == scalar, f"fused kernel diverged from scalar path: {context}"
    assert scalar == event, f"fast engine diverged from event engine: {context}"
    assert event == reference, f"product select diverged from reference: {context}"


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_traced_runs_match_reference(policy, monkeypatch):
    """Tracing on: every product ``select`` records the same trace
    events as its reference twin, and the runs stay identical."""
    traces, summaries = [], []
    for reference in (False, True):
        with monkeypatch.context() as patch:
            if reference:
                use_reference_policies(patch)
            reset_query_counter()  # qids appear in trace payloads
            recorder = TraceRecorder(enabled=True)
            config = ExperimentConfig(name="traced", duration=60.0, engine="event")
            result = runner.run_once(config, PolicySpec(name=policy), trace=recorder)
        traces.append([(e.time, e.category, e.message) for e in recorder.events])
        summaries.append(json.dumps(result.summary.as_dict(), sort_keys=True))
    assert traces[0] == traces[1]
    assert summaries[0] == summaries[1]
    assert any(category == "mediate" for _, category, _ in traces[0])
