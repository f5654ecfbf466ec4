"""One run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

``MODE`` is ``plain`` (tracing off: the end-to-end run), ``trace``
(every layer boundary wrapped, see ``layers.py``) or ``mem`` (a
``tracemalloc`` pass grouped by owning module).  ``repro`` must be
importable, from ``PYTHONPATH``.  Prints one JSON object on stdout.

The simulation runs in ``SLICES`` equal slices of simulated time.  Before
each slice and after the last, a fixed pure-Python loop (``calibrate``)
is timed, so the host's speed is sampled all through the run.  A shared
host drifts by 10-40 % over minutes; dividing the run's wall time by the
loop's speed in the same window takes that drift out of ``norm_wall_s``.
"""

import time

# Set-up time starts here, before ``import repro``.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

MODES = ("plain", "trace", "mem")
#: Slices of simulated time the run is cut into, one calibration between each.
SLICES = 64
#: Steps of the calibration loop per sample, a few milliseconds of work.
CAL_STEPS = 20000
#: ``norm_wall_s`` is wall time on a host that runs one calibration step in
#: this many nanoseconds.
REF_NS_PER_STEP = 150.0


def calibrate():
    """Host seconds for ``CAL_STEPS`` steps of a fixed integer loop.

    It allocates nothing the garbage collector tracks and touches almost
    no memory, so it measures the host's speed, not the simulator's heap.
    """
    x = 1
    started = time.perf_counter()
    for _ in range(CAL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - started


def run_sliced(world):
    """Run the world to its end time; return (wall seconds, ns per step)."""
    wall_s = 0.0
    cal_s = calibrate()
    for k in range(1, SLICES + 1):
        until = world.duration if k == SLICES else world.duration * k / SLICES
        started = time.perf_counter()
        world.testbed.run(until=until)
        wall_s += time.perf_counter() - started
        cal_s += calibrate()
    return wall_s, cal_s / ((SLICES + 1) * CAL_STEPS) * 1e9


def modeled_cpu(testbed):
    """Simulated CPU seconds the model charged, by kind of core.

    Read from outside as ``Core.busy_seconds``.  A core counts once, in
    the first group that claims it: the CoreEngine core, then NSM cores,
    then guest vCPUs; every other host core is a hypervisor core.
    """
    groups = {"coreengine": [], "nsm": [], "guest": [], "hypervisor": []}
    seen = set()

    def claim(group, cores):
        for core in cores:
            if id(core) not in seen:
                seen.add(id(core))
                groups[group].append(core)

    hypervisors = (testbed.hypervisor_a, testbed.hypervisor_b)
    for hv in hypervisors:
        claim("coreengine", [hv.coreengine.core])
    for hv in hypervisors:
        for nsm in hv.nsms:
            claim("nsm", nsm.cores)
    for hv in hypervisors:
        for vm in hv.vms:
            claim("guest", vm.cores)
    for hv in hypervisors:
        claim("hypervisor", hv.host.cpu.cores)
    return {g: sum((c.busy_seconds for c in cores), 0.0) for g, cores in groups.items()}


def layer_counts(world):
    """Per-layer counts the program keeps itself, read after the run."""
    testbed = world.testbed
    wire = testbed.wire
    drops = 0
    for link in (wire.a_to_b, wire.b_to_a):
        drops += link.stats.dropped_overflow + link.stats.dropped_random
    counts = {
        "net.drops": drops,
        "netkernel.coreengine.nqes_switched": sum(
            hv.coreengine.nqes_copied
            for hv in (testbed.hypervisor_a, testbed.hypervisor_b)
        ),
        "api.ready": world.sink.ready if world.sink else 0,
        "api.sink_waits": world.sink.waits if world.sink else 0,
    }
    fluid = world.fidelity.stats() if world.fidelity is not None else {}
    for key in ("rate_epochs", "promotions", "demotions"):
        counts[f"sim.fluid.{key}"] = fluid.get(key, 0)
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    args = parser.parse_args()

    recorder = None
    if args.mode == "trace":
        recorder = layers.Recorder({workloads.__name__, __name__})
        layers.install(recorder)
    elif args.mode == "mem":
        tracemalloc.start()
    world = workloads.build(args.workload, args.seed)
    if recorder is not None:
        recorder.reset()
    setup_s = time.perf_counter() - _STARTED
    wall_s, ns_per_step = run_sliced(world)

    events = world.testbed.events_processed
    result = {}
    if args.mode == "mem":
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        by_layer = layers.memory_by_layer(snapshot, {workloads.__name__, __name__})
        result["mem_bytes_per_conn"] = {
            layer: size / world.connections for layer, size in by_layer.items()
        }
    attempted, failed, problems, modeled = world.check()
    result.update(
        workload=args.workload,
        seed=args.seed,
        mode=args.mode,
        setup_s=setup_s,
        wall_s=wall_s,
        cal_ns_per_step=ns_per_step,
        norm_wall_s=wall_s * REF_NS_PER_STEP / ns_per_step,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        events=events,
        attempted=attempted,
        failed=failed,
        problems=problems,
        modeled={k: repr(v) for k, v in modeled.items()},
        digest=workloads.digest(modeled, events),
        model_cpu_s=modeled_cpu(world.testbed),
        counts=layer_counts(world),
    )
    if recorder is not None:
        result["self_s"] = layers.self_times(recorder, wall_s)
        result["counts"].update(recorder.counts)
        result["counts"]["netkernel.rings.high_watermark"] = recorder.high_watermark
    print(json.dumps(result, sort_keys=True), flush=True)
    # Leave without freeing the world: nothing measures its teardown, and
    # on the 10k workloads it would lengthen every run by a tenth.
    os._exit(0)


if __name__ == "__main__":
    main()
