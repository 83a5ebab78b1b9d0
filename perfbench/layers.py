"""Per-layer tracing for the traced benchmark pass.

Spans are recorded from the benchmark's own files: every wrapper below
times a call into a layer's public function and counts it.  Nothing in
``src/`` is changed.  Module-level functions are replaced in every
module that imported them by name, classes get wrapped methods, and
each freshly wired :class:`~repro.experiments.runner.LiveRun` gets
instance-level wrappers on its mediator(s) and metrics hub before its
first event fires.

Tracing is never installed in the untimed reference run or in the
measured (untraced) runs.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Dict, List, Optional

_clock = time.perf_counter

#: Policies with their own ``core.mediate_us.<policy>`` metric.
POLICIES = ("sbqa", "capacity", "economic")


class Tally:
    """Call count and busy seconds of one span name."""

    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0


class LayerTrace:
    """Spans and counters of one traced workload process."""

    def __init__(self) -> None:
        self.tallies: Dict[str, Tally] = {}
        self.lives: List[object] = []
        self.tick_seconds: List[float] = []

    def tally(self, name: str) -> Tally:
        tally = self.tallies.get(name)
        if tally is None:
            tally = self.tallies[name] = Tally()
        return tally

    def timed(self, names, fn, per_call: Optional[List[float]] = None):
        """``fn`` wrapped to add its calls and duration to ``names``."""
        tallies = [self.tally(name) for name in names]

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                for tally in tallies:
                    tally.calls += 1
                    tally.seconds += elapsed
                if per_call is not None:
                    per_call.append(elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point of the modules already loaded.

        Only modules the workload imported are touched, so tracing
        imports nothing the untraced run would not.  A function imported
        by name is rebound in each module the workloads call it through.
        """
        loaded = sys.modules

        def rebind(attr: str, wrapped, modules) -> None:
            for name in modules:
                module = loaded.get(name)
                if module is not None and hasattr(module, attr):
                    setattr(module, attr, wrapped)

        runner = loaded["repro.experiments.runner"]
        wire = self._wire_wrapper(runner.wire_run)
        rebind("wire_run", wire, ("repro.experiments.runner", "repro.serve.engine",
                                  "repro.api.session"))
        rebind(
            "build_boinc_population",
            self.timed(("population",), runner.build_boinc_population),
            ("repro.experiments.runner",),
        )
        rebind(
            "build_summary",
            self.timed(("summary",), runner.build_summary),
            ("repro.experiments.runner", "repro.serve.engine"),
        )
        summary_mod = loaded["repro.metrics.summary"]
        rebind(
            "summary_digest",
            self.timed(("digest",), summary_mod.summary_digest),
            ("repro.metrics.summary", "repro.serve.engine"),
        )
        rebind(
            "run_once",
            self.timed(("run_once",), runner.run_once),
            ("repro.experiments.runner", "repro.api.session"),
        )
        parallel = loaded.get("repro.federation.parallel")
        if parallel is not None:
            rebind(
                "run_parallel",
                self.timed(("run_parallel",), parallel.run_parallel),
                ("repro.federation.parallel", "repro.api.session"),
            )
        live_cls = runner.LiveRun
        live_cls.step_until = self.timed(("step_until",), live_cls.step_until)
        live_cls.finalize = self.timed(("finalize",), live_cls.finalize)
        serve = loaded.get("repro.serve.engine")
        if serve is not None:
            engine_cls = serve.ServeEngine
            engine_cls.submit = self.timed(("submit",), engine_cls.submit)
            engine_cls.advance_to = self.timed(
                ("advance_to",), engine_cls.advance_to, per_call=self.tick_seconds
            )

    def _wire_wrapper(self, wire_run):
        timed_wire = self.timed(("wire",), wire_run)

        def wire(*args, **kwargs):
            live = timed_wire(*args, **kwargs)
            self.instrument(live)
            return live

        return wire

    def instrument(self, live) -> None:
        """Instance-level spans on one freshly wired run."""
        self.lives.append(live)
        policy = live.policy_spec.name
        mediator = live.mediator
        federation = getattr(mediator, "federation", None)
        shards = federation.mediators if federation is not None else [mediator]
        for shard in shards:
            shard.mediate = self.timed(("mediate", f"mediate.{policy}"), shard.mediate)
        if federation is not None:
            mediator.mediate = self.timed(("federated_mediate",), mediator.mediate)
        hub = live.hub
        hub.sample_once = self.timed(("sample",), hub.sample_once)

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics this process can attribute (0 where a
        layer was idle), plus the busy seconds of ``run_once`` and
        ``run_parallel`` for the federation figures ``run.py`` derives."""
        t = self.tallies.get
        empty = Tally()

        def get(name: str) -> Tally:
            return t(name) or empty

        mediate, sample = get("mediate"), get("sample")
        run_s = get("step_until").seconds + get("finalize").seconds - get("summary").seconds
        events = sum(live.sim.events_fired for live in self.lives)
        departures = sum(len(live.hub.departures) for live in self.lives)
        out = {
            "experiments.wire_s": get("wire").seconds,
            "workloads.population_s": get("population").seconds,
            "core.mediations": mediate.calls,
            "core.mediate_us": _per(mediate.seconds * 1e6, mediate.calls),
            "core.mediate_share": _per(mediate.seconds, run_s),
            "des.events": events,
            "des.events_per_mediation": _per(events, mediate.calls),
            "des.residual_ns_per_event": _per(
                (run_s - mediate.seconds - sample.seconds) * 1e9, events
            ),
            "system.departures": departures,
            "metrics.samples": sample.calls,
            "metrics.sample_ms": _per(sample.seconds * 1e3, sample.calls),
            "metrics.sample_share": _per(sample.seconds, run_s),
            "metrics.summary_s": get("summary").seconds,
            "metrics.digest_s": get("digest").seconds,
        }
        for policy in POLICIES:
            per_policy = get(f"mediate.{policy}")
            out[f"core.mediate_us.{policy}"] = _per(
                per_policy.seconds * 1e6, per_policy.calls
            )
        routed = get("federated_mediate")
        out["federation.route_us"] = _per(
            (routed.seconds - mediate.seconds) * 1e6, routed.calls
        )
        submit = get("submit")
        out["serve.submit_us"] = _per(submit.seconds * 1e6, submit.calls)
        ticks = sorted(self.tick_seconds)
        out["serve.ticks"] = len(ticks)
        out["serve.tick_p50_ms"] = _quantile(ticks, 0.50) * 1e3
        out["serve.tick_p98_ms"] = _quantile(ticks, 0.98) * 1e3
        out["run_once_s"] = get("run_once").seconds
        out["run_parallel_s"] = get("run_parallel").seconds
        return out


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Import self-time in seconds from ``python -X importtime`` output.

    ``total`` sums every module the process imported; ``numpy``,
    ``scipy`` and ``repro`` sum each package's own modules, wherever in
    the run they were first imported.
    """
    totals = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "repro": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the column header line
        module = fields[2].strip()
        seconds = self_us / 1e6
        totals["total"] += seconds
        package = module.split(".", 1)[0]
        if package in totals:
            totals[package] += seconds
    return totals
