"""Benchmark entry point: one workload, measured end to end, outputs checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-headline --seed 7 --seconds 25 --trace 0

Every measured sample is a fresh interpreter running
``perfbench/child.py`` on inputs generated here from ``--seed``.  This
script times each child from spawn to exit, checks every operation's
digest against the expected one, and prints the medians as the last
stdout line (one JSON object).  ``--trace 1`` adds one traced pass and
reports per-layer metrics instead of end-to-end ones.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import MARKER, WORKERS  # noqa: E402
from layers import parse_importtime  # noqa: E402

DEFAULT_SEED = 20090301
#: Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 165.0
#: A single child (one workload execution) that runs longer has hung.
CHILD_TIMEOUT_S = 120.0
#: Seconds ``child.calibrate()`` takes on the reference host.  Timings
#: are reported in reference seconds: host seconds times this over the
#: calibration the same process measured around its workload.
CALIBRATION_REF_S = 0.40
#: At least this many measured samples per run, even past ``--seconds``.
MIN_SAMPLES = 3
#: Digests pinned at the default seed and full size.
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Workload size: "full", or "small" (see ``SMALL``) for the self-test.
SCALE = "full"

INPUTS = {
    "cli-demo": "cli_demo.json",
    "paper-headline": "paper_headline.json",
    "federated-parallel": "federated_parallel.json",
    "serve-flash-crowd": "serve_flash_crowd.json",
}

#: Reduced sizes for the self-test (``SCALE = "small"``).
SMALL = {
    "cli-demo": {"duration": 60.0},
    "paper-headline": {"duration": 300.0, "n_providers": 40},
    "federated-parallel": {"duration": 60.0, "n_providers": 200},
    "serve-flash-crowd": {"duration": 60.0, "n_providers": 40},
}


class ChildFailed(Exception):
    """A workload process raised, exited non-zero, or timed out."""


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def make_input(workload: str, seed: int, scale: str) -> dict:
    """The workload's spec (and trace) with every seed set to ``seed``."""
    with open(os.path.join(HERE, "inputs", INPUTS[workload]), encoding="utf-8") as fh:
        data = json.load(fh)
    specs = [data["spec"]] if "spec" in data else [data]
    for spec in specs:
        spec["seed"] = seed
        if scale == "small":
            overrides = SMALL[workload]
            spec["duration"] = overrides["duration"]
            if "n_providers" in overrides:
                spec["population"]["n_providers"] = overrides["n_providers"]
            spec["autonomy"]["warmup"] = min(spec["autonomy"]["warmup"], spec["duration"] / 8)
    if "trace" in data:
        data["trace"]["seed"] = seed
        if scale == "small":
            data["trace"]["duration"] = data["spec"]["duration"]
    return data


def expected_digests(path: str, workload: str, seed: int, scale: str):
    """Pinned digests for ``(workload, seed, scale)``, or None."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload)
    if entry and entry["seed"] == seed and entry["scale"] == scale:
        return entry
    return None


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


class Runner:
    """Spawns workload processes and keeps the run inside its deadline."""

    def __init__(self, root: str, workload: str, input_path: str, workdir: str) -> None:
        self.workload = workload
        self.input_path = input_path
        self.workdir = workdir
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child = os.path.join(HERE, "child.py")

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, *flags: str, importtime: bool = False) -> dict:
        """Run the workload once; its result plus wall/setup seconds."""
        timeout = min(CHILD_TIMEOUT_S, self.remaining())
        if timeout <= 0:
            raise ChildFailed("no time left in this run")
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [self.child, self.workload, self.input_path, self.workdir, *flags]
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            start_new_session=True,
            text=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.communicate()
            raise ChildFailed(f"timed out after {timeout:.0f} s: {' '.join(flags)}")
        finally:
            _kill_group(proc)
        wall = time.monotonic() - start
        lines = [l for l in stdout.splitlines() if l.startswith(MARKER)]
        if proc.returncode != 0 or not lines:
            tail = "\n".join(stderr.splitlines()[-15:])
            raise ChildFailed(f"exit code {proc.returncode}:\n{tail}")
        result = json.loads(lines[-1][len(MARKER):])
        result["wall_s"] = wall
        result["setup_s"] = result["t_setup"] - start
        if importtime:
            result["imports"] = parse_importtime(stderr)
        return result

    def warm(self) -> None:
        """Fill the bytecode cache with an untimed import."""
        try:
            subprocess.run(
                [sys.executable, "-c", "import repro.cli, repro.serve.engine"],
                env=self.env, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise ChildFailed(f"import failed: {exc}") from exc


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the child's whole session (forked workers included)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------


def operations(result: dict) -> int:
    """Operations one execution performs: serve submissions, else runs."""
    return result.get("submitted", len(result["digests"]))


def failed_operations(result: dict, expected: dict) -> int:
    """Operations of one execution that fail the check."""
    if result.get("exit_code", 0) != 0:
        return operations(result)
    if "submitted" in result:
        if result["digests"] != expected["digests"]:
            return result["submitted"]
        return result["refused"]
    return sum(
        result["digests"].get(label) != digest
        for label, digest in expected["digests"].items()
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def speed_factor(result: dict) -> float:
    """Host seconds of ``result``'s child to reference seconds."""
    before, after = result["calibration_s"]
    return CALIBRATION_REF_S / ((before + after) / 2)


def end_to_end(result: dict, scaled: bool = True) -> dict:
    """One sample's end-to-end metrics, in reference seconds by default.

    The calibration passes are the child's own work, so they are taken
    out of its host times first: ``before`` ran ahead of the imports
    and ``after`` after the run.
    """
    before, after = result["calibration_s"]
    factor = speed_factor(result) if scaled else 1.0
    return {
        "wall_s": (result["wall_s"] - before - after) * factor,
        "setup_s": (result["setup_s"] - before) * factor,
        "mediations_per_s": result["mediations"] / (result["run_s"] * factor),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced_wall: float, serial=None, fallbacks: int = 0) -> dict:
    """Every per-layer metric of one traced pass (0 where a layer is idle).

    On ``federated-parallel``, ``serial`` is the traced ``run_once``
    child: forked workers cannot report their spans, so the core, des
    and metrics figures come from the same world run serially.  The two
    children run one after the other, so the serial and parallel times
    are each scaled by their own child's calibration before they are
    compared.
    """
    out = dict((serial or traced)["layers"])
    imports = traced["imports"]
    out.update({
        "import.total_s": imports["total"],
        "import.numpy_s": imports["numpy"],
        "import.scipy_s": imports["scipy"],
        "import.repro_s": imports["repro"],
        "trace.overhead_s": end_to_end(traced)["wall_s"] - untraced_wall,
        "serve.submitted": traced.get("submitted", 0),
        "serve.dropped": traced.get("dropped", 0),
    })
    federation = dict.fromkeys(("serial_s", "parallel_s", "speedup", "overhead_s", "forwarded"), 0)
    if serial is not None:
        serial_s = serial["layers"]["run_once_s"] * speed_factor(serial)
        parallel_s = traced["layers"]["run_parallel_s"] * speed_factor(traced)
        federation = {
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": serial_s / parallel_s,
            "overhead_s": parallel_s - serial_s / WORKERS,
            "forwarded": serial["forwarded"],
        }
    federation["fallbacks"] = fallbacks
    out.update({f"federation.{key}": value for key, value in federation.items()})
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment(args, root: str) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": commit,
        "seed": args.seed,
        "workers": WORKERS,
        "scale": SCALE,
        "loadavg_1m": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def measure(args, workload: str, root: str, workdir: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    input_path = os.path.join(workdir, "input.json")
    with open(input_path, "w", encoding="utf-8") as fh:
        json.dump(make_input(workload, args.seed, SCALE), fh)
    runner = Runner(root, workload, input_path, workdir)
    env = environment(args, root)
    print("PERFBENCH_ENV " + json.dumps(env, sort_keys=True), flush=True)

    expected = expected_digests(EXPECTED_PATH, workload, args.seed, SCALE)
    try:
        if expected is None:
            # Untimed reference: the event-faithful engine, serially,
            # through the same entry point.  It also fills the bytecode
            # cache, so no timed sample pays for compiling the sources.
            reference = runner.spawn("--engine", "event")
            expected = {"digests": reference["digests"], "operations": operations(reference)}
        else:
            runner.warm()
    except ChildFailed as exc:
        print(f"error: reference run failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    attempted = failed = 0
    samples, modes, errors = [], [], []

    def check(result) -> None:
        nonlocal attempted, failed
        attempted += operations(result)
        failed += failed_operations(result, expected)
        if "mode" in result and result["mode"] != "serial":
            modes.append({"mode": result["mode"], "reason": result["reason"]})

    # Measured samples: untraced, back to back, while the next one is
    # expected to end within --seconds (the traced pass included).
    start = time.monotonic()
    while True:
        try:
            result = runner.spawn()
        except ChildFailed as exc:
            errors.append(str(exc))
            attempted += expected["operations"]
            failed += expected["operations"]
            break
        check(result)
        samples.append(result)
        walls = [s["wall_s"] for s in samples]
        typical = statistics.median(walls)
        reserve = 0.0
        if args.trace:
            # one traced child; federated-parallel adds a serial one
            reserve = typical * (3.0 if workload == "federated-parallel" else 1.5)
        elapsed = time.monotonic() - start
        if len(samples) >= MIN_SAMPLES and elapsed + typical + reserve > args.seconds:
            break
        if runner.remaining() < max(walls) + reserve + 5.0:
            break

    metrics, host = {}, {}
    if samples and not args.trace:
        per_sample = [end_to_end(s) for s in samples]
        for name in per_sample[0]:
            values = [m[name] for m in per_sample]
            metrics[name] = (statistics.median(values), values)
            host[name] = statistics.median(end_to_end(s, scaled=False)[name] for s in samples)
    elif samples:
        untraced_wall = statistics.median(end_to_end(s)["wall_s"] for s in samples)
        try:
            traced = runner.spawn("--trace", importtime=True)
            check(traced)
            serial = None
            if workload == "federated-parallel":
                serial = runner.spawn("--trace", "--serial")
                check(serial)
            fallbacks = sum(m["mode"] != "parallel" for m in modes)
            layer_values = per_layer(traced, untraced_wall, serial, fallbacks)
            metrics = {name: (value, [value]) for name, value in layer_values.items()}
        except ChildFailed as exc:
            errors.append(str(exc))
            attempted += expected["operations"]
            failed += expected["operations"]

    names = declared["per_layer"] if args.trace else declared["end_to_end"]
    report = {}
    for entry in names:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            errors.append(f"metric {name} was not measured")
            continue
        value, values = metrics[name]
        report[name] = {"value": value, "unit": unit}
        q1, q3 = quartiles(values)
        line = f"{name:32s} {value:14.6f} {unit:6s} n={len(values)} q1={q1:.6f} q3={q3:.6f}"
        if name in host:
            line += f" host={host[name]:.6f}"
        print(line, flush=True)
    share = failed / attempted if attempted else 1.0
    print(f"{'failed_share':32s} {share:14.6f} ratio  ({failed} of {attempted} operations)")
    if modes:
        print("PERFBENCH_PARALLEL " + json.dumps(modes), flush=True)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS) + ["all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    workloads = list(INPUTS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            if len(workloads) > 1:
                print(f"== {workload}", flush=True)
            results[workload] = measure(args, workload, root, workdir)
            if len(workloads) > 1:
                print(json.dumps(results[workload], sort_keys=True), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    if len(workloads) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: r["metrics"] for w, r in results.items()},
        }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
