"""Run one benchmark workload once, in the interpreter it was spawned in.

Usage (``perfbench/run.py`` spawns it like this)::

    PYTHONPATH=src python perfbench/child.py WORKLOAD INPUT.json WORKDIR \\
        [--engine event] [--trace] [--serial]

The last stdout line is ``PERFBENCH_RESULT`` followed by one JSON
object: the digest of every operation, the mediations completed, the
monotonic instant set-up ended (``CLOCK_MONOTONIC`` is shared by every
process on the host, so ``run.py`` subtracts its own spawn instant),
host seconds of the run phase, peak RSS, and the two readings of the
speed calibration that brackets the workload.  ``--engine event`` is the
untimed reference pass; ``--trace`` adds per-layer spans (see
``layers.py``); ``--serial`` runs ``federated-parallel`` on ``run_once``.

Nothing from the program is imported before the workload function
starts, so the import cost lands inside the measured set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import resource
import sys
import time

MARKER = "PERFBENCH_RESULT "
#: ``federated-parallel`` worker count: the core count of the 2-core
#: machine the benchmark was defined on.  Fixed so that the workload is
#: the same everywhere; the core count is recorded beside the numbers.
WORKERS = 2
_clock = time.perf_counter


class _Job:
    __slots__ = ("due", "owner", "work")

    def __init__(self, due: float, owner: int, work: float) -> None:
        self.due = due
        self.owner = owner
        self.work = work


def calibrate(iterations: int = 200_000) -> float:
    """Seconds this process takes for one fixed pure-Python event loop.

    The loop does what the simulator does most (small objects, a heap,
    dict updates, float arithmetic) and never changes, so its duration
    measures the host's current speed.  A virtual machine shared with
    other tenants can change speed by a third within a minute;
    ``run.py`` scales every timing by this reading, taken in the same
    process just before and just after the workload.
    """
    start = _clock()
    heap = []
    load = {}
    state = 12345
    total = 0.0
    for seq in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        job = _Job(state / 2147483648.0, seq & 127, (state & 1023) * 0.001)
        heapq.heappush(heap, (job.due, seq, job))
        load[job.owner] = load.get(job.owner, 0.0) + job.work
        if len(heap) > 512:
            done = heapq.heappop(heap)[2]
            total += load[done.owner] * 0.5 + done.work
    return _clock() - start


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _config(spec_dict: dict, engine: str):
    from repro.api.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(dict(spec_dict, engine=engine))
    return spec, spec.to_config()


def _trace_install(tracer) -> None:
    if tracer is not None:
        tracer.install()


def cli_demo(data: dict, args, tracer) -> dict:
    """``sbqa run --spec <spec> --json <out>``: the command users type."""
    import repro.cli

    t_setup = time.monotonic()
    _trace_install(tracer)
    start = _clock()
    spec_path = os.path.join(args.workdir, "cli_spec.json")
    out_path = os.path.join(args.workdir, "cli_result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    argv = ["run", "--spec", spec_path, "--json", out_path]
    if args.engine != "fast":
        argv += ["--engine", args.engine]
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            code = repro.cli.main(argv)
        finally:
            sys.stdout = stdout
    run_s = _clock() - start
    with open(out_path, "rb") as fh:
        raw = fh.read()
    result = json.loads(raw)
    issued = sum(
        summary["issued"]
        for policy in result["policies"]
        for summary in policy["summaries"]
    )
    return {
        "exit_code": code,
        "digests": {"result.json": hashlib.sha256(raw).hexdigest()},
        "mediations": issued,
        "t_setup": t_setup,
        "run_s": run_s,
    }


def paper_headline(data: dict, args, tracer) -> dict:
    """Scenario 4 at paper scale: wire every policy, run, summarize."""
    import repro.experiments.runner as runner
    import repro.metrics.summary as summary_mod

    _trace_install(tracer)
    spec, config = _config(data, args.engine)
    lives = [runner.wire_run(config, policy) for policy in spec.policies]
    t_setup = time.monotonic()
    run_s = 0.0
    for live in lives:
        start = _clock()
        live.step_until(config.duration)
        run_s += _clock() - start
    digests = {}
    for live in lives:
        digests[live.label] = summary_mod.summary_digest(live.finalize().summary)
    return {
        "digests": digests,
        "mediations": sum(live.mediator.mediations for live in lives),
        "t_setup": t_setup,
        "run_s": run_s,
    }


def federated_parallel(data: dict, args, tracer) -> dict:
    """One federated run on ``run_parallel``; ``--engine event`` and
    ``--serial`` run the same world on ``run_once`` instead."""
    import repro.experiments.runner as runner
    import repro.federation.parallel as parallel
    import repro.metrics.summary as summary_mod

    _trace_install(tracer)
    spec, config = _config(data, args.engine)
    policy = spec.policies[0]
    t_setup = time.monotonic()
    start = _clock()
    if args.serial or args.engine != "fast":
        result = runner.run_once(config, policy)
        mode, reason = "serial", None
    else:
        report = parallel.run_parallel(config, policy, workers=WORKERS)
        result, mode, reason = report.result, report.mode, report.reason
    run_s = _clock() - start
    return {
        "digests": {policy.label: summary_mod.summary_digest(result.summary)},
        "mediations": result.mediator.mediations,
        "forwarded": result.mediator.forwarded,
        "t_setup": t_setup,
        "run_s": run_s,
        "mode": mode,
        "reason": reason,
    }


def serve_flash_crowd(data: dict, args, tracer) -> dict:
    """Open-loop serving: submit arrivals in sim-time order, tick 1 sim-s."""
    import repro.serve.engine as serve
    from repro.workloads.traces import TraceSpec

    _trace_install(tracer)
    spec, config = _config(data["spec"], args.engine)
    engine = serve.ServeEngine(config, spec.policies[0])
    arrivals = TraceSpec.from_dict(data["trace"]).materialize(
        consumer_ids=engine.consumer_ids()
    )
    t_setup = time.monotonic()
    start = _clock()
    refused = 0
    index = 0
    tick = 0
    while engine.now < config.duration:
        tick += 1
        target = min(float(tick), config.duration)
        while index < len(arrivals) and arrivals[index].time <= target:
            arrival = arrivals[index]
            accepted, _ = engine.submit(
                arrival.consumer_id,
                service_demand=arrival.service_demand,
                topic=arrival.topic,
                n_results=arrival.n_results,
                quorum=arrival.quorum,
                at=arrival.time,
            )
            refused += not accepted
            index += 1
        engine.advance_to(target)
    run_s = _clock() - start
    payload = engine.final_payload()
    return {
        "digests": {"final": payload["digest"]},
        "mediations": engine.live.mediator.mediations,
        "submitted": len(arrivals),
        "refused": refused,
        "dropped": payload["admission"]["dropped"],
        "t_setup": t_setup,
        "run_s": run_s,
    }


WORKLOADS = {
    "cli-demo": cli_demo,
    "paper-headline": paper_headline,
    "federated-parallel": federated_parallel,
    "serve-flash-crowd": serve_flash_crowd,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("input")
    parser.add_argument("workdir")
    parser.add_argument("--engine", default="fast", choices=("fast", "event"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--serial", action="store_true")
    args = parser.parse_args(argv)

    before = calibrate()
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import LayerTrace

        tracer = LayerTrace()
    out = WORKLOADS[args.workload](_load(args.input), args, tracer)
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    out["calibration_s"] = [before, calibrate()]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(self_kb, child_kb) / 1024.0
    print(MARKER + json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
