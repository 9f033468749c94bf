"""The traced run: per-layer timings and counts, taken from outside ``src/``.

Spans are timed here, around calls into each layer's public functions, on
inputs generated from the run's seed.  Where the server already records a
stage (the ``op``, ``queue.wait`` and ``stream.settle`` trace events), it
is read back through the public ``trace`` operation; counts come from
``stats``.  Nothing is added inside ``src/``.

* The service phase drives the workload's own publications (the
  ``publish_fresh`` traffic for ``design_analysis``, which has none)
  against a child server: closed-loop bursts untraced and traced in ABBA
  order (their throughput ratio is the tracing overhead), an untraced
  open loop (the tail, the generator's lateness), a traced open loop
  (the server's stages), then one-in-flight clean re-publications.
* The in-process sweep times the protocol, digest, parse, fold,
  streaming, runtime, compilation and core layers directly.
"""

from __future__ import annotations

import asyncio
import io
import statistics
import time

from repro.api import analyze_design
from repro.core.consistency import check_consistency
from repro.core.design import TopDownDesign
from repro.core.existence import (
    find_local_typing,
    find_maximal_local_typings,
    find_perfect_typing,
)
from repro.distributed.network import DistributedDocument
from repro.distributed.runtime.runtime import ValidationRuntime
from repro.engine.batch import BatchValidator
from repro.engine.compilation import CompilationEngine, use_engine
from repro.engine.fingerprint import payload_fingerprint
from repro.service import protocol
from repro.service.client import AsyncServiceClient
from repro.streaming import streaming_validator_for
from repro.trees.xml_io import tree_from_xml, tree_to_xml
from repro.workloads import synthetic

import inputs
from service import (
    DESIGN,
    ChildServer,
    check_final_state,
    closed_loop,
    metric,
    open_loop,
    percentile,
    register,
    warm_up,
)
from speed import Probe

#: Positions, by size, of the first large-document pool timed by the
#: streaming sweep (~56, ~135, ~224 KB).
STREAM_SAMPLE = (0, 7, 15)
#: Record documents timed by the per-KB sweeps.
SWEEP_DOCUMENTS = 256


def _median_us(call, items) -> float:
    samples = []
    for item in items:
        began = time.perf_counter()
        call(item)
        samples.append(1e6 * (time.perf_counter() - began))
    return statistics.median(samples)


def _us_per_kb(call, payloads: list[bytes], repeats: int) -> float:
    """Total time over total kilobytes, best of ``repeats`` passes."""
    kilobytes = sum(len(payload) for payload in payloads) / 1024.0
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        for payload in payloads:
            call(payload)
        best = min(best, time.perf_counter() - began)
    return 1e6 * best / kilobytes


# --------------------------------------------------------------------------- #
# service phase (child process)
# --------------------------------------------------------------------------- #


async def _clean_rtt_us(port: int, function: str, payload: bytes, seconds: float) -> float:
    """One request in flight, the same bytes every time: the clean fast path."""
    client = await AsyncServiceClient.connect("127.0.0.1", port)
    samples = []
    try:
        await client.publish(DESIGN, function, payload)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            began = time.perf_counter()
            reply = await client.publish(DESIGN, function, payload)
            samples.append(1e6 * (time.perf_counter() - began))
            if not reply.get("clean"):
                raise RuntimeError("a byte-identical re-publication was not clean")
    finally:
        await client.close()
    return statistics.median(samples)


async def _server_trace(port: int) -> list[dict]:
    client = await AsyncServiceClient.connect("127.0.0.1", port)
    try:
        return (await client.trace())["events"]
    finally:
        await client.close()


async def _server_stats(port: int) -> dict:
    client = await AsyncServiceClient.connect("127.0.0.1", port)
    try:
        return await client.stats()
    finally:
        await client.close()


def _stage_times(events: list[dict]) -> tuple[list[float], list[float]]:
    """Server time and admission time of each publication, from its trace events.

    A whole-frame publication has an ``op`` event (receipt to reply) and a
    ``queue.wait`` event (admission queue).  A chunked stream has no
    admission queue: its server time is the ``stream.settle`` event and
    its admission is the ``publish_stream_begin`` op that takes a stream
    slot.  (Chunk and end frames carry no trace id.)
    """
    ops, waits = [], []
    for event in events:
        name, op = event["name"], event.get("op")
        if (name == "op" and op == "publish") or name == "stream.settle":
            ops.append(event["ms"])
        elif name == "queue.wait" or (name == "op" and op == "publish_stream_begin"):
            waits.append(event["ms"])
    return ops, waits


def service_phase(workload: str, seed: int, seconds: float, config: dict, outcome, root) -> dict:
    traffic = "publish_fresh" if workload == "design_analysis" else workload
    spec = config["workloads"][traffic]
    chunk, rate = spec.get("chunk_bytes"), spec["open_rate"]
    connections, window = config["connections"], spec["window"]
    made, closed_items, open_items = inputs.for_run(traffic, seed, config)
    server = ChildServer(root, config["server"]["argv"])
    try:
        port = server.port
        asyncio.run(register(port, made))
        loads = [asyncio.run(warm_up(port, closed_items, connections, spec, chunk))]
        # Untraced and traced closed-loop bursts in ABBA order, so a drift
        # in machine speed does not read as tracing overhead.
        for traced in (False, True, True, False):
            loads.append(
                asyncio.run(
                    closed_loop(
                        port, closed_items, 0.05 * seconds, connections, window, chunk,
                        traced, resume=loads[-1],
                    )
                )
            )
        opened = asyncio.run(open_loop(port, open_items, rate, 0.2 * seconds, connections, chunk))
        loads.append(opened)
        loads.append(
            asyncio.run(
                open_loop(
                    port, open_items, rate, 0.1 * seconds, connections, chunk, True,
                    start=opened.attempted,
                )
            )
        )
        events = asyncio.run(_server_trace(port))
        check_final_state(port, made, [item for load in loads for item in load.sent], outcome)
        stats = asyncio.run(_server_stats(port))
        function, tree = next(iter(made.initial.items()))
        rtt = asyncio.run(_clean_rtt_us(port, function, tree_to_xml(tree).encode(), 0.025 * seconds))
    finally:
        server.stop()
    names = ("warm-up", "burst", "burst", "burst", "burst", "open loop", "traced open loop")
    for name, load in zip(names, loads):
        outcome.add_load(name, load)
    bursts, opened, traced_open = loads[1:5], loads[5], loads[6]
    mine = set(traced_open.trace_ids)
    events = [event for event in events if event["trace"] in mine]
    backends = {event["backend"] for event in events if "backend" in event}
    if backends != {config["server"]["backend"]}:
        outcome.problems.append(f"the server validated with {backends}, not the pinned backend")
    ops, waits = _stage_times(events)
    if not ops or not waits:
        raise RuntimeError("the server's trace ring holds no publish stages")
    runtime = stats["designs"][DESIGN]["runtime"]
    messages = stats["designs"][DESIGN]["network"]["messages"]
    validations = runtime["validations_run"] + runtime["validations_skipped"]
    # Equal-length bursts: replies in time compare as throughputs.
    untraced_replies = bursts[0].in_time + bursts[3].in_time
    traced_replies = bursts[1].in_time + bursts[2].in_time
    return {
        "service.clean_rtt_us": metric(rtt, "us"),
        "server.op_ms_p50": metric(statistics.median(ops), "ms"),
        "server.queue_wait_ms_p50": metric(statistics.median(waits), "ms"),
        "server.queue_wait_ms_p99": metric(percentile(waits, 0.99), "ms"),
        "runtime.pubs_per_round": metric(runtime["publications"] / max(1, runtime["rounds"]), "count"),
        "runtime.clean_share": metric(
            runtime["clean_publications"] / max(1, runtime["publications"]), "share"
        ),
        "runtime.skip_share": metric(runtime["validations_skipped"] / max(1, validations), "share"),
        "network.messages_per_pub": metric(messages / max(1, runtime["publications"]), "count"),
        "gen.late_p99_ms": metric(percentile(opened.late_ms, 0.99), "ms"),
        "tail.latency_p90_ms": metric(percentile(opened.latencies_ms, 0.90), "ms"),
        "tail.latency_p99_ms": metric(percentile(opened.latencies_ms, 0.99), "ms"),
        "trace.overhead_pct": metric(100.0 * (untraced_replies / traced_replies - 1.0), "%"),
    }


# --------------------------------------------------------------------------- #
# in-process sweep
# --------------------------------------------------------------------------- #


def _frame_round_trip(payload: bytes) -> None:
    frame = protocol.request_frame(1, "publish", {"design": DESIGN, "function": "f1"}, payload)
    protocol.read_frame_blocking(io.BytesIO(frame))


def publish_layers(seed: int) -> dict:
    made = inputs.publish_fresh(seed, SWEEP_DOCUMENTS)
    payloads = [item.payload for item in made.publications]
    expected = [item.valid for item in made.publications]
    kilobytes = sum(len(payload) for payload in payloads) / 1024.0

    def fold_us_per_kb(backend: str) -> float:
        engine = CompilationEngine()
        validators = {
            function: BatchValidator(local_type, engine=engine, backend=backend)
            for function, local_type in made.typing.items()
        }
        # A validator memoizes verdicts per document object: every pass
        # folds freshly parsed trees.
        best = float("inf")
        for _ in range(3):
            trees = [tree_from_xml(payload) for payload in payloads]
            began = time.perf_counter()
            verdicts = [
                validators[item.function].validate(tree)
                for item, tree in zip(made.publications, trees)
            ]
            best = min(best, time.perf_counter() - began)
            if verdicts != expected:
                raise RuntimeError(f"fold verdicts ({backend}) differ from the generator's")
        return 1e6 * best / kilobytes

    compile_ms = []
    for _ in range(5):
        began = time.perf_counter()
        engine = CompilationEngine()
        for _function, local_type in made.typing.items():
            BatchValidator(local_type, engine=engine)
        compile_ms.append(1000.0 * (time.perf_counter() - began))

    document = DistributedDocument(made.kernel, made.initial)
    runtime = ValidationRuntime(document, max_workers=4)
    publish_us, round_ms = [], []
    try:
        runtime.propagate_typing(made.typing)
        for start in range(0, len(made.publications), inputs.PEERS):
            for item in made.publications[start:start + inputs.PEERS]:
                began = time.perf_counter()
                runtime.publish(item.function, item.payload)
                publish_us.append(1e6 * (time.perf_counter() - began))
            began = time.perf_counter()
            runtime.validate_locally()
            round_ms.append(1000.0 * (time.perf_counter() - began))
    finally:
        runtime.close()
    return {
        "protocol.frame_us": metric(_median_us(_frame_round_trip, payloads), "us"),
        "digest.us_per_kb": metric(_us_per_kb(payload_fingerprint, payloads, 3), "us/KB"),
        "parse.us_per_kb": metric(_us_per_kb(tree_from_xml, payloads, 3), "us/KB"),
        "fold.us_per_kb.python": metric(fold_us_per_kb("python"), "us/KB"),
        "fold.us_per_kb.codegen": metric(fold_us_per_kb("codegen"), "us/KB"),
        "runtime.publish_us": metric(statistics.median(publish_us), "us"),
        "runtime.round_ms": metric(statistics.median(round_ms), "ms"),
        "engine.compile_ms": metric(statistics.median(compile_ms), "ms"),
    }


def stream_layers(seed: int) -> dict:
    """Streaming validation of large documents (events to verdict, no ``Tree``), per backend."""
    made = inputs.stream_large(seed)
    pool = sorted(made.publications[: len(inputs.LARGE_RECORDS)], key=lambda item: len(item.payload))
    documents = [pool[index] for index in STREAM_SAMPLE]
    kilobytes = sum(len(item.payload) for item in documents) / 1024.0
    out = {}
    for backend in ("python", "codegen"):
        engine = CompilationEngine()
        validators = {
            item.function: streaming_validator_for(made.typing[item.function], engine, backend)
            for item in documents
        }
        best = float("inf")
        for _ in range(2):
            began = time.perf_counter()
            verdicts = [
                validators[item.function].validate_payload(item.payload) for item in documents
            ]
            best = min(best, time.perf_counter() - began)
            if verdicts != [item.valid for item in documents]:
                raise RuntimeError(f"streaming verdicts ({backend}) differ from the generator's")
        out[f"stream.us_per_kb.{backend}"] = metric(1e6 * best / kilobytes, "us/KB")
    return out


def warm_up_analysis() -> None:
    """Finish lazy imports and first-call set-up on a throwaway engine."""
    for design in (synthetic.bottom_up_chain(2), synthetic.separable_topdown_design(1)):
        analyze_design(design, engine=CompilationEngine())


def _block_ms(times: list[float]) -> float:
    """Mean time of the complete catalogue blocks in ``times`` after the first.

    The first block fills a fresh engine's cache and takes longer; a
    short pass would weigh it more than a long one.
    """
    size = inputs.CATALOGUE_SIZE
    blocks = len(times) // size
    return sum(times[size: blocks * size]) / max(1, blocks - 1)


def analysis_pass(designs: inputs.DesignInputs, seconds: float, outcome) -> tuple[list[float], float]:
    """Untraced ``analyze_design`` calls, as in the end-to-end run: latencies, ms per block."""
    engine = CompilationEngine()
    latencies = []
    deadline = time.perf_counter() + seconds
    for design, (family, size, expected) in zip(designs.designs, designs.entries):
        if len(latencies) >= 2 * inputs.CATALOGUE_SIZE and time.perf_counter() >= deadline:
            break
        outcome.attempted += 1
        began = time.perf_counter()
        report = analyze_design(design, engine=engine)
        latencies.append(1000.0 * (time.perf_counter() - began))
        if not inputs.matches(inputs.verdict_of(report), expected):
            outcome.problems.append(f"wrong verdict on {(family, size)} in the traced run")
    return latencies, _block_ms(latencies)


def _analyze_copy(design, timed) -> dict:
    """What ``analyze_design`` runs, call by call through ``timed(kind, call)``.

    Returns the verdict in ``inputs.verdict_of``'s shape.
    ``check_copy`` fails the run if this stops matching the API.
    """
    if isinstance(design, TopDownDesign):
        perfect = timed("perfect", lambda: find_perfect_typing(design))
        local = perfect or timed("local", lambda: find_local_typing(design))
        timed("maximal", lambda: find_maximal_local_typings(design, limit=4))
        return {"local": local is not None, "perfect": perfect is not None}
    return {
        "consistency": {
            language: timed(
                "cons", lambda: check_consistency(design.kernel, design.typing, language)
            ).consistent
            for language in ("DTD", "SDTD", "EDTD")
        }
    }


def check_copy(seed: int, outcome) -> None:
    """Fail the run unless the copy gives ``analyze_design``'s verdicts and cache traffic.

    One catalogue block goes through each, as fresh design objects on a
    fresh engine; per design, the verdict and the engine-statistics delta
    must be equal.
    """
    api_engine, copy_engine = CompilationEngine(), CompilationEngine()
    api_block, copy_block = inputs.design_analysis(seed, 1), inputs.design_analysis(seed, 1)
    with use_engine(copy_engine):
        for api_design, copy_design, entry in zip(
            api_block.designs, copy_block.designs, api_block.entries
        ):
            report = analyze_design(api_design, engine=api_engine)
            before = copy_engine.stats.snapshot()
            verdict = _analyze_copy(copy_design, lambda _kind, call: call())
            delta = copy_engine.stats.delta(before)
            if verdict != inputs.verdict_of(report) or delta != report.engine_stats:
                outcome.problems.append(
                    f"the traced copy of analyze_design differs from it on {entry[:2]}: "
                    f"{verdict} {delta} against {inputs.verdict_of(report)} {report.engine_stats}"
                )


def core_layers(designs: inputs.DesignInputs, seconds: float, outcome) -> tuple[dict, float]:
    """The decision procedures ``analyze_design`` runs, timed call by call.

    Returns the per-layer metrics and the mean time of a catalogue block.
    """
    engine = CompilationEngine()
    timings: dict[str, list[float]] = {"cons": [], "perfect": [], "local": [], "maximal": []}

    def timed(kind: str, call):
        began = time.perf_counter()
        result = call()
        timings[kind].append(1000.0 * (time.perf_counter() - began))
        return result

    per_design = []
    deadline = time.perf_counter() + seconds
    with use_engine(engine):
        before = engine.stats.snapshot()
        for design, (family, size, expected) in zip(designs.designs, designs.entries):
            if len(per_design) >= 2 * inputs.CATALOGUE_SIZE and time.perf_counter() >= deadline:
                break
            outcome.attempted += 1
            began = time.perf_counter()
            verdict = _analyze_copy(design, timed)
            per_design.append(1000.0 * (time.perf_counter() - began))
            if not inputs.matches(verdict, expected):
                outcome.problems.append(f"wrong verdict on {(family, size)} in the traced run")
        delta = engine.stats.delta(before)
    metrics = {
        "engine.hit_rate": metric(delta["hit_rate"], "share"),
        "engine.misses": metric(delta["misses"], "count"),
        "core.cons_ms": metric(statistics.median(timings["cons"]), "ms"),
        "core.exists_perfect_ms": metric(statistics.median(timings["perfect"]), "ms"),
        "core.exists_local_ms": metric(statistics.median(timings["local"]), "ms"),
        "core.maximal_local_ms": metric(statistics.median(timings["maximal"]), "ms"),
    }
    return metrics, _block_ms(per_design)


def traced_run(workload: str, seed: int, seconds: float, outcome, config: dict, root) -> dict:
    """Every per-layer metric; the workload picks the traffic and the design passes.

    The timings here are raw, not scaled to the nominal speed;
    ``machine.slowness`` is the median slowness the speed probe read
    through the run.
    """
    probe = Probe(config["speed"]["reference_ms"])
    try:
        metrics = _layer_metrics(workload, seed, seconds, outcome, config, root)
    finally:
        probe.stop()
    metrics["machine.slowness"] = metric(probe.slowness(), "x")
    return metrics


def _layer_metrics(workload: str, seed: int, seconds: float, outcome, config: dict, root) -> dict:
    metrics = service_phase(workload, seed, seconds, config, outcome, root)
    metrics.update(publish_layers(seed))
    metrics.update(stream_layers(seed))
    check_copy(seed, outcome)
    if workload != "design_analysis":
        core, _block = core_layers(inputs.design_analysis(seed, 1), 0.0, outcome)
        metrics.update(core)
        return metrics
    # design_analysis has no wire traffic: its tail and its tracing overhead
    # come from an untraced pass on each side of the timed one, each over
    # fresh design objects and a fresh engine.
    blocks = config["workloads"]["design_analysis"]["blocks"]
    warm_up_analysis()

    def untraced() -> tuple[list[float], float]:
        return analysis_pass(inputs.design_analysis(seed, blocks), 0.15 * seconds, outcome)

    before, before_ms = untraced()
    core, traced_block = core_layers(inputs.design_analysis(seed, blocks), 0.3 * seconds, outcome)
    after, after_ms = untraced()
    latencies, untraced_block = before + after, (before_ms + after_ms) / 2
    metrics.update(core)
    metrics["tail.latency_p90_ms"] = metric(percentile(latencies, 0.90), "ms")
    metrics["tail.latency_p99_ms"] = metric(percentile(latencies, 0.99), "ms")
    metrics["trace.overhead_pct"] = metric(100.0 * (traced_block / untraced_block - 1.0), "%")
    return metrics
