"""The repository's benchmark: one workload, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from its
``src`` directory.  Every measured run is a fresh process
(``worker.py``), so its peak RSS is its own and no garbage-collector
state leaks from one run into the next.

``--trace 0`` repeats untraced runs for about ``--seconds`` (at least
``MIN_RUNS`` of them): another run starts while at least half of a
typical run fits before then.  It reports the end-to-end metrics as
medians:

* ``norm_wall_s`` -- host seconds inside the calls that run the
  simulation, scaled to a reference host speed that the worker samples
  between slices of the run (see ``worker.py``);
* ``setup_s`` -- host seconds from before ``import repro`` to the first
  simulated event (import plus world build);
* ``peak_rss_mb`` -- peak RSS of the process that ran the workload once.

``--trace 1`` makes one untraced run, one traced run (every layer
boundary wrapped, see ``layers.py``) and one ``tracemalloc`` run, and
reports the per-layer metrics.

Every run is checked (see ``workloads.py``), and the model digest must
be the same in all of them.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS

WORKLOADS = ("nsm_bulk", "nsm_churn", "epoll_10k", "fluid_bulk_10k")
NSM_WORKLOADS = ("nsm_bulk", "nsm_churn")
#: Metrics reported with ``--trace 0``; raw wall time and host speed are
#: printed beside them.
END_TO_END = ("norm_wall_s", "setup_s", "peak_rss_mb")
#: Fewest untraced runs whose medians are reported.
MIN_RUNS = 3
#: Untraced runs stop by this many seconds whatever ``--seconds`` asks,
#: so a slow host still ends the invocation well inside its time limit.
LAST_END_S = 100.0
RUN_TIMEOUT_S = 150.0
#: Seed of Python's hash randomization in every worker.
HASH_SEED = "0"

BENCH_DIR = Path(__file__).resolve().parent

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = tuple(layer for layer in LAYERS if layer != "other")

#: Which layers' host time sits beside each group of modeled CPU.
MODEL_GROUPS = (
    ("guest", ("netkernel.guestlib", "api")),
    ("coreengine", ("netkernel.coreengine", "netkernel.rings",
                    "netkernel.conntable")),
    ("nsm", ("netkernel.servicelib", "netkernel.hugepages", "tcp")),
    ("hypervisor", ("net", "host")),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def provenance(root, seed):
    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True,
                timeout=30,
                # Never report a repository that merely encloses the checkout.
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "PYTHONHASHSEED": HASH_SEED,
        "seed": seed,
    }


def run_worker(root, workload, seed, mode):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=HASH_SEED)
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        out = subprocess.run(command, cwd=root, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run of {workload} exceeded {RUN_TIMEOUT_S} s") from exc
    if out.returncode != 0:
        raise BenchError(
            f"{mode} run of {workload} exited {out.returncode}:\n{out.stderr[-4000:]}"
        )
    result = json.loads(out.stdout.splitlines()[-1])
    print(
        f"  {mode:5} run: setup {result['setup_s']:.3f} s, wall "
        f"{result['wall_s']:.3f} s at {result['cal_ns_per_step']:.1f} ns/step, "
        f"norm {result['norm_wall_s']:.3f} s, rss {result['peak_rss_mb']:.1f} MB, "
        f"events {result['events']}, attempted {result['attempted']}, "
        f"failed {result['failed']}, digest {result['digest']}"
    )
    for problem in result["problems"]:
        print(f"    check failed: {problem}")
    return result


def verdict(runs):
    """(correct, attempted, failed) over every run of one invocation."""
    digests = {run["digest"] for run in runs}
    correct = len(digests) == 1 and not any(run["problems"] for run in runs)
    if len(digests) > 1:
        print(f"  model digest differs between runs: {sorted(digests)}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return correct, attempted, failed


def end_to_end(root, args):
    runs = []
    lengths = []
    started = time.perf_counter()
    deadline = min(args.seconds, LAST_END_S)
    while len(runs) < MIN_RUNS or (
        time.perf_counter() - started + statistics.median(lengths) / 2 <= deadline
    ):
        began = time.perf_counter()
        runs.append(run_worker(root, args.workload, args.seed, "plain"))
        lengths.append(time.perf_counter() - began)
    metrics = {}
    for name, unit in (("norm_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
                       ("wall_s", "s"), ("cal_ns_per_step", "ns")):
        values = [run[name] for run in runs]
        median = statistics.median(values)
        if name in END_TO_END:
            metrics[name] = {"value": median, "unit": unit}
        print(f"{name:15} median {median:.4f} {unit} over {len(values)} runs "
              f"(min {min(values):.4f}, max {max(values):.4f})")
    return runs, metrics


def per_layer(root, args):
    plain = run_worker(root, args.workload, args.seed, "plain")
    traced = run_worker(root, args.workload, args.seed, "trace")
    mem = run_worker(root, args.workload, args.seed, "mem")
    self_s = traced["self_s"]
    counts = traced["counts"]
    wall = traced["wall_s"]

    def per(numerator, denominator, scale=1e9):
        return numerator / denominator * scale if denominator else 0.0

    values = {f"{layer}.self_s": self_s[layer] for layer in SELF_TIME_LAYERS}
    values.update({
        "sim.events": traced["events"],
        "sim.ns_per_event": per(self_s["sim"], traced["events"]),
        "sim.schedules": counts["sim.schedules"],
        "tcp.segments": counts["tcp.segments"],
        "tcp.ns_per_segment": per(self_s["tcp"], counts["tcp.segments"]),
        "tcp.connections": counts["tcp.connections"],
        "tcp.retransmits": counts["tcp.retransmits"],
        "net.packets": counts["net.packets"],
        "net.ns_per_packet": per(self_s["net"], counts["net.packets"]),
        "net.drops": counts["net.drops"],
        "host.cpu_ops": counts["host.cpu_ops"],
        "api.epoll_waits": counts["api.epoll_waits"],
        "api.ready_per_wait": per(counts["api.ready"], counts["api.sink_waits"], 1),
        "trace.overhead": traced["norm_wall_s"] / plain["norm_wall_s"],
        "trace.coverage": 1.0 - self_s["other"] / wall,
        "trace.unattributed_s": self_s["other"],
    })
    for key in ("netkernel.rings.nqes", "netkernel.rings.high_watermark",
                "netkernel.coreengine.nqes_switched", "netkernel.hugepages.copies",
                "netkernel.hugepages.alloc_failures", "netkernel.conntable.ops",
                "sim.fluid.rate_epochs", "sim.fluid.promotions",
                "sim.fluid.demotions"):
        values[key] = counts[key]
    for layer in LAYERS:
        values[f"mem.{layer}.bytes_per_conn"] = mem["mem_bytes_per_conn"][layer]
    for group, _layers in MODEL_GROUPS:
        values[f"model.cpu.{group}_s"] = traced["model_cpu_s"][group]

    print(f"per-layer self time, traced wall {wall:.3f} s "
          f"({values['trace.overhead']:.2f}x untraced), "
          f"coverage {values['trace.coverage']:.4f}:")
    for layer in LAYERS:
        print(f"  {layer:22} {self_s[layer]:8.3f} s  {self_s[layer] / wall:6.1%}")
    if args.workload in NSM_WORKLOADS:
        print("modeled vs spent: simulated CPU the model charges beside the "
              "host time the simulator spends")
        for group, group_layers in MODEL_GROUPS:
            spent = sum(self_s[layer] for layer in group_layers)
            print(f"  {group:11} model {traced['model_cpu_s'][group]:.6f} s   "
                  f"host {spent:.3f} s in {', '.join(group_layers)}")
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in sorted(values.items())}
    return [plain, traced, mem], metrics


def unit_of(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.startswith("ns_per_"):
        return "ns"
    return {"overhead": "x", "coverage": "share", "bytes_per_conn": "B",
            "ready_per_wait": "fds"}.get(suffix, "count")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Byte-compile once up front, so no run's set-up pays for it.
    compileall.compile_dir(root / "src", quiet=1)
    print("provenance " + json.dumps(provenance(root, args.seed), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            runs, metrics = per_layer(root, args)
        else:
            runs, metrics = end_to_end(root, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed = verdict(runs)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
