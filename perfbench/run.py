"""The repository benchmark: four workloads, end-to-end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload publish_fresh --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  Progress and details go to stderr; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Any
wrong verdict or a changed input generator makes ``correct`` false and
the exit code 1.  See ``perfbench/README.md`` for the method.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"no repro sources under {ROOT / 'src'}: run from the root of a checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from service import memory_mb, metric, percentile  # noqa: E402  (needs the paths above)
from speed import Probe, time_unit  # noqa: E402

CONFIG = json.loads((HERE / "config.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Outcome:
    """Operations attempted and failed, plus every correctness problem seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_load(self, name: str, load) -> None:
        self.attempted += load.attempted
        self.failed += load.errors
        if load.errors:
            self.problems.append(f"{name}: {load.errors} failed request(s) {load.error_codes}")
        if load.mismatches:
            self.problems.append(f"{name}: {load.mismatches} wrong peer verdict(s)")


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #


def check_input_digests(outcome: Outcome) -> None:
    """Fail the run if the workload generators no longer produce the pinned inputs."""
    import inputs

    pinned = CONFIG["input_digests"]
    actual = inputs.reference_digests(pinned["seed"])
    for workload, digest in actual.items():
        if pinned[workload] != digest:
            outcome.problems.append(
                f"input digest of {workload} at seed {pinned['seed']} changed: {digest}"
            )


# --------------------------------------------------------------------------- #
# the publish workloads (child-process service)
# --------------------------------------------------------------------------- #


def setup_service(workload_inputs) -> tuple[object, list[tuple[float, float]]]:
    """Child boot plus ``register_design``, several times; the last server stays.

    Returns the server and the ``perf_counter`` interval of every boot.
    """
    from service import ChildServer, register

    boots = []
    for attempt in range(CONFIG["setup_repeats"]):
        started = time.perf_counter()
        server = ChildServer(ROOT, CONFIG["server"]["argv"])
        try:
            asyncio.run(register(server.port, workload_inputs))
        except BaseException:
            server.stop()
            raise
        boots.append((started, time.perf_counter()))
        if attempt + 1 < CONFIG["setup_repeats"]:
            server.stop()
    return server, boots


def nominal_setup_s(probe: Probe, intervals: list[tuple[float, float]]) -> float:
    """Median set-up time, each at the nominal speed."""
    return statistics.median((end - start) * probe.speed(start, end) for start, end in intervals)


def run_publish(workload: str, seed: int, seconds: float, outcome: Outcome) -> dict:
    import inputs
    from service import check_final_state, closed_loop, open_loop, warm_up

    spec = CONFIG["workloads"][workload]
    chunk = spec.get("chunk_bytes")
    connections, window = CONFIG["connections"], spec["window"]
    made, closed_items, open_items = inputs.for_run(workload, seed, CONFIG)
    log(f"{workload}: {len(made.publications)} publications, input digest {made.digest()[:16]}")
    rounds = CONFIG["phase_rounds"]
    phase_seconds = seconds / (2 * rounds)
    # A closed phase sends a fixed number of publications, so the server's
    # state (which grows with every publication and slows it) is the same
    # at every phase of every run, however fast the machine ran.  The
    # count takes ``phase_seconds`` at the seed commit's nominal rate.
    closed_count = max(1, round(spec["closed_rate"] * phase_seconds))
    probe = Probe(CONFIG["speed"]["reference_ms"])
    try:
        server, boots = setup_service(made)
        try:
            port = server.port
            loads = [asyncio.run(warm_up(port, closed_items, connections, spec, chunk))]
            # Peak memory after a fixed number of publications: the server's
            # state grows with every publication, so a reading at the end of
            # the run would rise with throughput.
            peak = server.peak_rss_mb()
            closed, opened = [], []
            # Closed and open phases alternate, so each samples the machine at
            # several moments of the run rather than in one stretch.
            for _ in range(rounds):
                closed.append(
                    asyncio.run(
                        closed_loop(
                            port, closed_items, 20 * phase_seconds, connections, window, chunk,
                            resume=(closed or loads)[-1], cpu=server.cpu_seconds,
                            limit=closed_count,
                        )
                    )
                )
                opened.append(
                    asyncio.run(
                        open_loop(
                            port, open_items, spec["open_rate"], phase_seconds, connections,
                            chunk, start=sum(load.attempted for load in opened),
                        )
                    )
                )
            # In the order sent, as the oracle replays them.
            loads += [load for pair in zip(closed, opened) for load in pair]
            for load in loads:
                outcome.add_load("publish load", load)
            check_final_state(port, made, [item for load in loads for item in load.sent], outcome)
        finally:
            server.stop()
    finally:
        probe.stop()
    replies = sum(load.attempted - load.errors for load in closed)
    # Closed-loop seconds and child CPU seconds, at the nominal speed.
    closed_nominal = sum(
        (load.finished - load.began) * probe.speed(load.began, load.finished) for load in closed
    )
    cpu_nominal = sum(
        load.cpu_seconds * probe.speed(load.began, load.finished, "cpu") for load in closed
    )
    # A request is shorter than the probe's period: it takes the mean speed
    # over a margin on either side, a few units rather than one.
    margin = CONFIG["speed"]["margin_seconds"]
    latencies = [
        latency * probe.speed(due - margin, due + latency / 1000.0 + margin)
        for load in opened
        for latency, due in zip(load.latencies_ms, load.dues)
    ]
    late = [ms for load in opened for ms in load.late_ms]
    log(
        f"{workload}: closed loop {replies} publications in "
        f"{sum(load.finished - load.began for load in closed):.2f}s; "
        f"open loop {len(latencies)} samples at {spec['open_rate']}/s, at the nominal speed: "
        f"p50 {percentile(latencies, 0.5):.2f} p90 {percentile(latencies, 0.9):.2f} "
        f"p99 {percentile(latencies, 0.99):.2f} max {max(latencies):.2f} ms, "
        f"generator late p99 {percentile(late, 0.99):.2f} ms; "
        f"median slowness {probe.slowness():.2f}"
    )
    return {
        "setup_s": metric(nominal_setup_s(probe, boots), "s"),
        "throughput_per_s": metric(replies / closed_nominal, "1/s"),
        "cpu_ms_per_op": metric(1000.0 * cpu_nominal / max(1, replies), "ms"),
        "latency_p50_ms": metric(percentile(latencies, 0.50), "ms"),
        "peak_rss_mb": metric(peak, "MB"),
    }


# --------------------------------------------------------------------------- #
# design analysis (in-process)
# --------------------------------------------------------------------------- #


def setup_designs(seed: int) -> tuple[object, list[tuple[float, float]]]:
    import inputs

    intervals, made = [], None
    for _ in range(CONFIG["setup_repeats"]):
        started = time.perf_counter()
        made = inputs.design_analysis(seed, CONFIG["workloads"]["design_analysis"]["blocks"])
        intervals.append((started, time.perf_counter()))
    return made, intervals


def reset_peak_rss() -> float:
    """Start a new peak-RSS reading of this process; returns its RSS now.

    Writing 5 to ``clear_refs`` resets ``VmHWM`` to the current RSS.
    Where the kernel refuses, the peak still counts from here as long as
    the analysis outgrows the set-up, which it does by far (~60 MB against
    ~12 MB of design objects).
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError as error:
        log(f"design_analysis: peak RSS not reset ({error})")
    return memory_mb("self", "VmRSS")


def run_design_analysis(seed: int, seconds: float, outcome: Outcome) -> dict:
    """Analyses on one shared engine, each timed at the nominal speed.

    Analyses take milliseconds, shorter than the probe's period, and the
    probe runs on the other CPU; so one reference unit runs in this
    thread before every analysis, and an analysis is taken at the mean
    speed of the units on either side of it (wall-clock speed for its
    latency, CPU speed for its CPU time).  The probe times set-up.
    """
    import inputs
    import repro
    from layers import warm_up_analysis

    probe = Probe(CONFIG["speed"]["reference_ms"])
    try:
        made, generations = setup_designs(seed)
    finally:
        probe.stop()
    log(f"design_analysis: {len(made.designs)} designs, input digest {made.digest()[:16]}")
    warm_up_analysis()
    # The analyzer's memory apart from the interpreter and the inputs.
    baseline_mb = reset_peak_rss()
    engine = repro.CompilationEngine()
    nominal = CONFIG["speed"]["reference_ms"] / 1000.0
    # Per analysis: wall and CPU seconds; per gap between analyses: the
    # reference unit's wall and CPU seconds.
    walls, cpus, units = [], [], [time_unit()]
    deadline = time.perf_counter() + seconds
    # Whole catalogue blocks only, so every run analyses the same mix.
    while time.perf_counter() < deadline or len(walls) % inputs.CATALOGUE_SIZE:
        position = len(walls) % len(made.designs)
        design, expected = made.designs[position], made.entries[position][2]
        outcome.attempted += 1
        cpu_before = time.process_time()
        began = time.perf_counter()
        report = repro.analyze_design(design, engine=engine)
        walls.append(time.perf_counter() - began)
        cpus.append(time.process_time() - cpu_before)
        units.append(time_unit())
        if not inputs.matches(inputs.verdict_of(report), expected):
            outcome.problems.append(f"wrong verdict on {made.entries[position][:2]}")
    peak_mb = memory_mb() - baseline_mb
    # Mean speed of the units on either side, wall-clock and CPU.
    speeds = [
        (2 * nominal / (before[0] + after[0]), 2 * nominal / (before[1] + after[1]))
        for before, after in zip(units, units[1:])
    ]
    latencies = [1000.0 * wall * speed[0] for wall, speed in zip(walls, speeds)]
    cpu_nominal = sum(cpu * speed[1] for cpu, speed in zip(cpus, speeds))
    log(
        f"design_analysis: {len(walls)} analyses, at the nominal speed "
        f"{sum(latencies) / 1000.0:.2f}s: p50 {percentile(latencies, 0.5):.2f} "
        f"p90 {percentile(latencies, 0.9):.2f} p99 {percentile(latencies, 0.99):.2f} "
        f"max {max(latencies):.2f} ms; engine hit rate {engine.stats.hit_rate:.3f}, "
        f"RSS {baseline_mb:.1f} MB before the analyses; "
        f"median slowness {statistics.median(wall for wall, _cpu in units) / nominal:.2f}"
    )
    return {
        "setup_s": metric(nominal_setup_s(probe, generations), "s"),
        "throughput_per_s": metric(1000.0 * len(latencies) / sum(latencies), "1/s"),
        "cpu_ms_per_op": metric(1000.0 * cpu_nominal / len(walls), "ms"),
        "latency_p50_ms": metric(percentile(latencies, 0.50), "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its child server (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    outcome = Outcome()
    check_input_digests(outcome)
    if args.trace:
        import layers

        metrics = layers.traced_run(args.workload, args.seed, args.seconds, outcome, CONFIG, ROOT)
    elif args.workload == "design_analysis":
        metrics = run_design_analysis(args.seed, args.seconds, outcome)
    else:
        metrics = run_publish(args.workload, args.seed, args.seconds, outcome)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    printed = {name: value["unit"] for name, value in metrics.items()}
    if printed != declared:
        outcome.problems.append(f"metrics {printed} do not match BENCHMARK.json {declared}")
    for problem in outcome.problems:
        log(f"INCORRECT: {problem}")
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
