"""The repository benchmark: ``python3 benchmarks/perf/run.py``.

Three ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  Prints every metric by name with
    its unit and, as the last line of standard output, one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
    metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer
    metrics (plus a Chrome trace file under ``out/``) with
    ``--trace 1``.

``run.py [--seed N] [--seconds S] [--repeat K] [--trace 1] [--smoke]
[--workload W ...] [-o FILE]``
    The suite: each workload in a fresh subprocess, one after another,
    ``K`` passes in alternating order, and one result file with the
    host's vital signs next to the numbers.

``run.py compare A.json B.json``
    Per (metric, workload): both medians and quartiles, the ratio with
    its base, and improved / unchanged / regressed / unresolved by the
    bounds of ``BENCHMARK.json``; exits non-zero on any regression.

See ``README.md`` in this directory for what the numbers mean.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

DEFAULT_SEED = 20240611
SMOKE_SECONDS = 1


import hostspeed  # noqa: E402


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one workload, in this process --------------------------------------


def percentile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(math.ceil(percent / 100 * len(ranked)) - 1, 0)]


def best_per_op(epochs: list) -> dict[str, list[float]]:
    """Each op's lowest latency over the epochs that ran it.

    Epochs replay the same stream, so position ``i`` of a kind's list
    is the same op every time.  The sandbox's interference only
    ever adds time, in bursts that hit some executions of an op and
    not others; the minimum over replays is the op's cost without it.
    """
    best: dict[str, list[float]] = {}
    for epoch in epochs:
        for key, samples in epoch.latency.items():
            if key not in best:
                best[key] = list(samples)
            else:
                best[key] = [
                    min(pair) for pair in zip(best[key], samples)
                ]
    return best


def quiet_epochs(epochs: list) -> tuple[list, list[float]]:
    """Scale each epoch's clocks by the host's slowdown during it and
    keep the quiet ones; returns (kept epochs, every epoch's factor).

    The scaling (see :mod:`hostspeed`) is good to about a tenth when
    the host is slow, so an epoch counts only if its factor is within
    a tenth of the run's quietest epoch -- or is one of the two
    quietest, when the whole run was noisy.
    """
    factors = [hostspeed.slowdown(epoch.spins) for epoch in epochs]
    for epoch, factor in zip(epochs, factors):
        epoch.setup_s /= factor
        epoch.latency = {
            kind: [sample / factor for sample in samples]
            for kind, samples in epoch.latency.items()
        }
    ranked = sorted(range(len(epochs)), key=factors.__getitem__)
    kept = [
        index for rank, index in enumerate(ranked)
        if rank < 2 or factors[index] <= 1.1 * factors[ranked[0]]
    ]
    return [epochs[index] for index in sorted(kept)], factors


def end_to_end(epochs: list) -> dict[str, float]:
    best = best_per_op(epochs)
    queries, loads = best["query"], best["load"]
    usage = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return {
        "setup_s": min(epoch.setup_s for epoch in epochs),
        "query_p50_ms": percentile(queries, 50) * 1000,
        "query_p90_ms": percentile(queries, 90) * 1000,
        "load_p50_ms": percentile(loads, 50) * 1000,
        # Closed loop, one client: the next op is issued when the
        # last one returns, so throughput is 1 / mean latency.
        "ops_per_s": (len(queries) + len(loads))
        / (sum(queries) + sum(loads)),
        "peak_rss_mb": usage / 1024,
    }


def per_layer(traced: list, untraced: list) -> dict[str, float]:
    from repro.constraints import intern_stats

    from layers import layer_metrics

    interned = sum(
        table["size"] for table in intern_stats().values()
    )
    per_epoch = [
        layer_metrics(epoch.phases, epoch.extras, interned)
        for epoch in traced
    ]
    metrics = {}
    for name, last in per_epoch[-1].items():
        # Times (and ratios of times) take the quietest epoch;
        # counts repeat, so any epoch will do.
        timed = name.endswith(("_ms", "_regret")) or "us_per_" in name
        metrics[name] = (
            min(values[name] for values in per_epoch) if timed else last
        )

    def busy(epochs: list) -> float:
        return sum(
            value
            for values in best_per_op(epochs).values()
            for value in values
        )

    metrics["obs.trace_overhead_ratio"] = busy(traced) / busy(untraced)
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> dict:
    from repro.constraints import cache as solver_cache

    import trace
    from workloads import WORKLOADS, Epoch

    workload = WORKLOADS[name](smoke=smoke)
    generated = workload.generate(seed, traced)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    tracer = trace.Tracer() if traced else None
    plain: list = []
    probed: list = []
    started = time.perf_counter()
    try:
        while True:
            # A traced run alternates plain and probed epochs; their
            # ratio is the tracing overhead.
            probe = traced and len(plain) > len(probed)
            epoch = Epoch(
                tracer=tracer if probe else None,
                index=len(plain) + len(probed),
            )
            gc.collect()
            epoch.calibrate(6)
            patches = trace.install(tracer) if probe else []
            solver_cache.CACHE.reset_stats()
            try:
                workload.epoch(generated, epoch, workdir)
            finally:
                trace.uninstall(patches)
            if probe:
                tracer.drain()
                epoch.extras["solver"] = solver_cache.stats()
            (probed if probe else plain).append(epoch)
            enough = len(plain) >= 2 and (probed or not traced)
            if enough and time.perf_counter() - started >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    epochs = plain + probed
    plain, factors = quiet_epochs(plain)
    if traced:
        probed, probed_factors = quiet_epochs(probed)
        factors += probed_factors
    for epoch in epochs:
        for failure in epoch.failures[:5]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
    attempted = sum(epoch.attempted for epoch in epochs)
    failed = sum(epoch.failed for epoch in epochs)
    if traced:
        os.makedirs(OUT, exist_ok=True)
        tracer.write_chrome_trace(
            os.path.join(OUT, f"trace-{name}-seed{seed}.json")
        )
        values = per_layer(probed, plain)
        units = declared()["per_layer"]
    else:
        values = end_to_end(plain)
        units = declared()["end_to_end"]
    names = [entry["name"] for entry in units]
    if sorted(names) != sorted(values):
        raise SystemExit(
            "BENCHMARK.json and the benchmark disagree on metrics: "
            f"{sorted(set(names) ^ set(values))}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "host_factors": factors,
        "metrics": {
            entry["name"]: {
                "value": values[entry["name"]],
                "unit": entry["unit"],
            }
            for entry in units
        },
    }


def print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")


def main_one(arguments) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order is part of the program's work; pin it so
        # counts repeat exactly.  Shard workers inherit it.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    result = run_workload(
        arguments.workload[0],
        arguments.seed,
        arguments.seconds,
        bool(arguments.trace),
        arguments.smoke,
    )
    factors = result.pop("host_factors")
    print(
        f"{arguments.workload[0]}: seed {arguments.seed}, "
        f"{len(factors)} epochs, {result['attempted']} ops attempted, "
        f"{result['failed']} failed; host slowdown per epoch "
        + " ".join(f"{factor:.2f}" for factor in factors)
    )
    print_metrics(result)
    print(json.dumps(result))
    return 0


# -- the suite ----------------------------------------------------------


def host_spin_ms() -> float:
    """The best of fifty passes of a fixed pure-Python loop: the same
    number on the same host, so result files from different hosts
    show it."""
    return min(hostspeed.arithmetic_spin() for __ in range(50)) * 1000


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main_suite(arguments) -> int:
    from workloads import SIZES, SMOKE_SIZES, WORKLOADS

    names = arguments.workload or list(WORKLOADS)
    seconds = arguments.seconds
    if seconds is None:
        seconds = (
            SMOKE_SECONDS if arguments.smoke
            else declared()["run_seconds"]
        )
    os.makedirs(OUT, exist_ok=True)
    document = {
        "schema": "repro-perf/v1",
        "commit": commit(),
        "seed": arguments.seed,
        "seconds": seconds,
        "smoke": arguments.smoke,
        "sizes": SMOKE_SIZES if arguments.smoke else SIZES,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host_spin_ms": host_spin_ms(),
        "runs": [],
    }
    failed = 0
    for repeat in range(arguments.repeat):
        order = names if repeat % 2 == 0 else names[::-1]
        for trace in ((0, 1) if arguments.trace else (0,)):
            for name in order:
                load = os.getloadavg()[0]
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name,
                    "--seed", str(arguments.seed),
                    "--seconds", str(seconds),
                    "--trace", str(trace),
                ] + (["--smoke"] if arguments.smoke else [])
                done = subprocess.run(
                    command, capture_output=True, text=True,
                    env=dict(os.environ, PYTHONHASHSEED="0"),
                )
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    raise SystemExit(f"{name} exited {done.returncode}")
                lines = done.stdout.splitlines()
                result = json.loads(lines[-1])
                failed += result["failed"]
                document["runs"].append({
                    "workload": name,
                    "repeat": repeat,
                    "trace": trace,
                    "loadavg_1m": load,
                    # Epochs, ops and the host's slowdown per epoch.
                    "summary": lines[0],
                    **result,
                })
                print(
                    f"{name} (pass {repeat + 1}, trace {trace}, "
                    f"load {load:.2f}): {result['attempted']} ops, "
                    f"{result['failed']} failed"
                )
                print_metrics(result)
    path = arguments.output or os.path.join(
        OUT, f"result-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return 1 if failed else 0


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("-o", "--output")
    arguments = parser.parse_args(argv)
    # The contract's form -- one workload, a run length, no suite
    # options -- runs in this process and ends with the JSON line.
    if (
        len(arguments.workload) == 1
        and arguments.seconds is not None
        and arguments.repeat is None
        and arguments.output is None
    ):
        return main_one(arguments)
    arguments.repeat = arguments.repeat or 1
    return main_suite(arguments)


if __name__ == "__main__":
    sys.exit(main())
