"""dnaphash benchmark: seeded workloads through the real CLI, plus a traced run.

    python3 perfbench/run.py --workload short-reads --seed 1 --seconds 50 --trace 0

Run from the repository root (or any checkout of it). The package is taken
from ``src/`` next to this directory; nothing needs installing. Each run

1. writes its inputs from ``--seed`` under ``.perfbench/``;
2. sets up several times and reports the median as ``setup_s``;
3. for ``--seconds``, runs the workload's CLI commands in fresh processes,
   one at a time, with a share of the in-process probes after each one and
   a reference program once a round (timings are in units of its wall time);
4. checks every output (see ``oracle``), counting each command that exits
   nonzero or fails a check, and writes every timing it took to
   ``.perfbench/samples-<workload>-<seed>.json``;
5. with ``--trace 1``, also repeats the commands in-process with a span
   around each layer call, untraced and traced, and writes the spans to
   ``.perfbench/trace-<workload>-<seed>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
per-layer metrics with ``--trace 1``. Timings are medians because single
CLI invocations on a shared two-core machine spread by about +/-12%.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

now = time.perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 100


@dataclass
class CommandResult:
    wall: float
    rss_mb: float
    code: int


# Runs inside a small helper process that starts the CLI commands. A child's
# ru_maxrss includes the memory of the process that spawned it (Linux keeps
# the old image's high-water mark across exec), so spawning from this
# harness, which holds whole workloads in memory, would inflate peak_rss_mb.
SPAWNER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"] or os.devnull, "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
"""


# The reference: a fixed program that does the kinds of work a dnaphash
# command does (start Python, import numpy and scipy.fft, a pure-Python loop,
# FFTs) and nothing of dnaphash, so no change to the package can move it. Its
# wall time in each round is the unit of the timing metrics: on a shared host
# the same command's wall time drifts by a third over minutes, with the load
# of other tenants, and the reference drifts with it.
REFERENCE = r"""
import numpy, scipy.fft
sum((i * 2654435761 & 0xFFFFFFFF).bit_count() for i in range(400_000))
cells = numpy.random.default_rng(0).random((300, 64, 64))
for _ in range(5):
    scipy.fft.dctn(cells, axes=(1, 2), norm="ortho")
"""


class Runner:
    """Runs CLI commands in fresh processes and keeps the pass/fail tally."""

    def __init__(self, work: str):
        self.work = work
        env = {k: v for k, v in os.environ.items() if k != "DNAPHASH_WORKERS"}
        env["PYTHONPATH"] = SRC
        self.spawner = subprocess.Popen([sys.executable, "-c", SPAWNER], env=env, text=True,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.workload = None
        self.corrupt: str | None = None  # command kind whose first output gets damaged

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, argv: list[str], stdout: str | None = None) -> CommandResult:
        request = {"argv": argv, "stdout": stdout, "stderr": os.path.join(self.work, "stderr.txt"),
                   "cwd": self.work, "timeout": COMMAND_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        wall, maxrss_kb, code = json.loads(self.spawner.stdout.readline())
        return CommandResult(wall, maxrss_kb / 1024, code)

    def cold_import(self) -> float:
        res = self.spawn([sys.executable, "-c", "import dnaphash"])
        self.record("import dnaphash", res.code, [])
        return res.wall

    def reference(self) -> float:
        res = self.spawn([sys.executable, "-c", REFERENCE])
        self.record("reference", res.code, [])
        return res.wall

    def run(self, cmd) -> CommandResult:
        """Run one CLI command, then check its output."""
        res = self.spawn([sys.executable, "-m", "dnaphash", *cmd.args], cmd.stdout)
        problems = []
        if res.code == 0:
            if cmd.kind == self.corrupt:
                self.workload.damage(cmd.kind)
                self.corrupt = None
            problems = cmd.check()
        self.record(f"dnaphash {cmd.args[0]} ({cmd.kind})", res.code, problems)
        return res

    def record(self, label: str, code: int, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            with open(os.path.join(self.work, "stderr.txt"), "rb") as handle:
                tail = handle.read()[-300:].decode("utf-8", "replace").strip()
            problems = [f"exit code {code}: {tail}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def machine() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version",
                                                         "openblas configuration")).strip(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "accelerator": "none (CPU only)",
        "platform": platform.platform(),
    }


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {key: [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, 100 cut points)."""
    return statistics.quantiles(values, n=100)[q - 1]


#: End-to-end rate metric of each command kind.
RATE_METRICS = {"hash": "hash_rec_per_ref", "index": "index_rec_per_ref",
                "topk": "topk_probe_per_ref", "range": "range_probe_per_ref",
                "simulate": "sim_pair_per_ref"}


def measure(workload, runner: Runner, seconds: float) -> dict:
    """Timed rounds of CLI commands and in-process calls; end-to-end metrics.

    Every round runs each command once and the reference once, in the middle
    of the round. A timing metric is each round's figure over that round's
    reference wall, median over the rounds.
    """
    setup = workload.setup()
    walls: dict[str, list[float]] = {}  # one per round
    items: dict[str, int] = {}
    rss: dict[str, float] = {}
    refs: list[float] = []  # reference wall, one per round
    rounds: list[list[float]] = []  # in-process probe seconds, one list per round
    samples: dict[str, list] = {"command": [], "probe": []}  # (kind, start, seconds)
    start = now()
    deadline = start + seconds
    while not rounds or now() < deadline:
        commands = workload.commands()
        rounds.append([])
        for part, cmd in enumerate(commands):
            if part == len(commands) // 2:
                t0 = now() - start
                refs.append(runner.reference())
                samples["command"].append(("reference", t0, refs[-1]))
            t0 = now() - start
            res = runner.run(cmd)
            samples["command"].append((cmd.kind, t0, res.wall))
            walls.setdefault(cmd.kind, []).append(res.wall)
            items[cmd.kind] = cmd.items
            rss[cmd.kind] = max(rss.get(cmd.kind, 0.0), res.rss_mb)
            # A share of the in-process probes after each command spreads them
            # over the run, so a slow stretch of the machine touches few of them.
            t0 = now() - start
            latencies = workload.inprocess(part, len(commands))
            samples["probe"].extend(("probe", t0, x) for x in latencies)
            rounds[-1].extend(latencies)
    latencies = [x for r in rounds for x in r]
    median_wall = {k: statistics.median(v) for k, v in walls.items()}
    metrics = {RATE_METRICS[k]: items[k] * statistics.median(ref / w for ref, w in zip(refs, v))
               for k, v in walls.items()}
    metrics.update({
        "setup_s": statistics.median(setup),
        # The machine also switches between a fast and a slow speed every
        # second or so. A median of single probes jumps between the two as
        # their shares pass one half; a round's mean moves with the shares.
        # A percentile of the whole run follows the few slowest bursts.
        "probe_mref": 1e3 * statistics.median(
            statistics.fmean(r) / ref for r, ref in zip(rounds, refs)),
        "probe_p90_mref": 1e3 * statistics.median(
            quantile(r, 90) / ref for r, ref in zip(rounds, refs)),
        "peak_rss_mb": max(rss.values()),
        "index_rss_mb": rss["index"],
        "index_bytes_per_rec": workload.index_bytes_per_rec(),
        "_median_wall": median_wall,
        "_raw": {**{k: items[k] / w for k, w in median_wall.items()},
                 "reference": statistics.median(refs),
                 "probe_ms": 1e3 * statistics.median(latencies),
                 "probe_p95_ms": 1e3 * quantile(latencies, 95)},
        "_rss": rss,
        "_rounds": len(rounds),
        "_latency_samples": len(latencies),
        "_setup_samples": len(setup),
        "_samples": samples,
    })
    return metrics


def trace_layers(workload, e2e: dict) -> tuple[dict, object]:
    """Per-layer metrics from an untraced and a traced in-process mirror."""
    from layers import Layers, Tracer, package_api

    # The CLI sends the package's warnings (skipped records) to its stderr;
    # in-process they are created the same way but not printed.
    logging.getLogger("dnaphash").addHandler(logging.NullHandler())
    api = package_api()
    workload.traced(Layers(Tracer(enabled=False), api))  # warm-up: fills the package's caches
    t0 = now()
    workload.traced(Layers(Tracer(enabled=False), api))
    untraced = now() - t0
    tracer = Tracer()
    t0 = now()
    build_self = workload.traced(Layers(tracer, api))
    traced = now() - t0

    import_s = e2e["setup_s"]  # set-up is a cold import
    unattributed = sum(wall - import_s - tracer.child_total(f"cli.{kind}")
                       for kind, wall in e2e["_median_wall"].items())
    counters = tracer.counters
    special = {
        "startup.import_s": import_s,
        "index.build_index_s": build_self,
        "index.hit_ratio": counters["index.hits"] / counters["index.comparisons"]
        if counters["index.comparisons"] else 0.0,
        "cli.unattributed_s": unattributed,
        "trace.overhead_s": traced - untraced,
    }
    selfs = tracer.self_times()
    metrics = {}
    for name, _unit in declared_metrics()["per_layer"]:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith("_s"):
            metrics[name] = selfs.get(name[:-2], 0.0)
        else:
            metrics[name] = counters.get(name, 0)
    return metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--corrupt", choices=tuple(RATE_METRICS), default=None,
                        help="damage the first output of this command before it is checked "
                             "(self-test of the checks)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dnaphash", "__init__.py")):
        print(f"perfbench: no dnaphash package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(work)
    try:
        workload = WORKLOADS[args.workload](runner, work, args.seed, args.size)
        runner.workload, runner.corrupt = workload, args.corrupt
        t0 = now()
        workload.generate()
        generate_s = now() - t0
        e2e = measure(workload, runner, args.seconds)
        if args.trace:
            metrics, tracer = trace_layers(workload, e2e)
            units = dict(declared["per_layer"])
        else:
            metrics = {name: e2e[name] for name, _ in declared["end_to_end"]}
            units = dict(declared["end_to_end"])
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    info = machine()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"samples-{workload.name}-{args.seed}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(e2e["_samples"], handle)
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {args.seed}, inputs generated in {generate_s:.2f} s; machine {json.dumps(info)}")
    print(f"# {e2e['_rounds']} rounds, {e2e['_setup_samples']} set-ups, "
          f"{e2e['_latency_samples']} in-process latency samples; median CLI wall "
          + ", ".join(f"{k} {v:.3f} s" for k, v in e2e["_median_wall"].items()))
    raw = e2e["_raw"]
    print(f"# in seconds: reference {raw['reference']:.3f} s; " + ", ".join(
        f"{k} {raw[k]:.5g}/s" for k in RATE_METRICS) + f"; probe p50 {raw['probe_ms']:.2f} ms, "
          f"p95 {raw['probe_p95_ms']:.2f} ms")
    print("# peak RSS by command " + ", ".join(f"{k} {v:.1f} MB" for k, v in e2e["_rss"].items()))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"fail_frac {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} commands and passes)")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    if args.trace:
        for metric, reason in tracer.missing.items():
            print(f"MISSING {metric}: {reason} (reported as 0)")
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{workload.name}-{args.seed}.json"),
                    {"workload": workload.name, "seed": args.seed, "machine": info,
                     "metrics": metrics})
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
