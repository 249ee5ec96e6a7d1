"""The ``spinql`` workload: served SpinQL programs over the auction triples.

Five templates — a subject point lookup, a property/value filter, a
lots⋈auctions JOIN, a TRAVERSE hop and a ranked TOP k — run in rounds of one
each.  Parameters are Zipf-drawn, so popular programs repeat exactly and the
result cache and request collapsing carry part of the load, while the
compiler, verifier, optimizer, string-predicate kernels and the gather/wire
encoding of multi-row replies carry the rest.

Set-up (timed, three times) loads the triples, saves a 2-shard snapshot and
boots ``repro serve``; it ends with the first answered program.  After the
timed window the triples are generated again from the seed and every reply
is compared with :class:`~oracles.TripleOracle`.
"""

from __future__ import annotations

import shutil
import time

from common import (
    TemplateCounts,
    directory_mb,
    latency_metrics,
    median,
    release,
    timed,
)
from generate import (
    HOT_ROUND_EVERY,
    SPINQL_TEMPLATES,
    AuctionGraph,
    digest,
    spinql_program,
    spinql_stream,
)
from oracles import TripleOracle
from served import Client, ServeProcess, closed_loop, served_counters, set_up
from tracing import Tracer, codec_costs, per_layer_metrics, write_trace

NUM_LOTS = 8_000
CLIENTS = 2
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: enough rounds for 60 s at several times the measured rate
STREAM_ROUNDS = 2_000
#: clients stop on a whole number of hot/fresh cycles
ROUND_SIZE = len(SPINQL_TEMPLATES) * HOT_ROUND_EVERY


def request(template: str, parameter: str) -> dict:
    source, top_k = spinql_program(template, parameter)
    payload = {"kind": "spinql", "source": source}
    if top_k is not None:
        payload["top_k"] = top_k
    return payload


def check_replies(run, answered: list[tuple[tuple[str, str], list]]) -> bool:
    """Compare ``((template, parameter), rows)`` replies with the triple oracle.

    The oracle runs over triples generated again from the seed, so the
    generator's data need not outlive the set-up.
    """
    oracle = TripleOracle(AuctionGraph(run.seed, NUM_LOTS).triples)
    expected: dict[tuple[str, str], list] = {}
    correct = True
    for (template, parameter), rows in answered:
        key = (template, parameter)
        if key not in expected:
            _, top_k = spinql_program(template, parameter)
            expected[key] = oracle.evaluate(template, parameter, top_k)
        if rows != expected[key]:
            correct = False
            run.note(
                f"MISMATCH spinql {template}({parameter}): served {rows[:3]}... "
                f"({len(rows)} rows), oracle {expected[key][:3]}... ({len(expected[key])} rows)"
            )
    return correct


def inputs(run) -> tuple[AuctionGraph, list, list]:
    """The triples and the warm-up and timed programs; prints their digest."""
    graph = AuctionGraph(run.seed, NUM_LOTS)
    warm, window = spinql_stream(run.seed, NUM_LOTS, STREAM_ROUNDS)
    fingerprint = [graph.triples[:200], len(graph.triples), warm, window[:500]]
    run.note(f"input digest: spinql {digest(fingerprint)}")
    return graph, warm, window


def repeat_share(warm, window) -> float:
    """Share of ``window`` operations that ran before (in warm-up or window)."""
    seen = set(warm)
    repeats = 0
    for operation in window:
        repeats += operation in seen
        seen.add(operation)
    return repeats / len(window)


def run_e2e(run) -> tuple[bool, TemplateCounts, dict]:
    graph, warm, window = inputs(run)
    triples = graph.triples

    def build_engine():
        from repro.engine import Engine

        return Engine().load_triples(triples)

    server, snapshot, setups = set_up(run, build_engine, request(*warm[0]), SETUP_REPEATS)
    del graph, triples, build_engine
    release()

    host, port = server.host, server.port
    warm_results, _ = closed_loop(
        host, port, [request(*op) for op in warm], clients=CLIENTS, seconds=1e9
    )
    cpu_before = server.cpu_seconds()
    results, elapsed = closed_loop(
        host, port, [request(*op) for op in window], clients=CLIENTS,
        seconds=run.seconds, round_size=ROUND_SIZE,
    )
    cpu = server.cpu_seconds() - cpu_before
    metrics = {"setup_s": (median(setups), "s")}
    counts = TemplateCounts()
    samples = []
    for index, latency, reply in results:
        ok = bool(reply.get("ok"))
        counts.add(window[index][0], ok)
        if ok:
            samples.append(latency)
    metrics.update(latency_metrics(samples, elapsed, cpu))
    metrics["peak_rss_mb"] = (server.peak_rss_mb(), "MiB")
    metrics["snapshot_mb"] = (directory_mb(snapshot), "MiB")
    run.stop_server(server)
    run.note(f"setup_s samples: {[round(value, 3) for value in setups]}")
    share = repeat_share(warm, window[: len(results)])
    run.note(f"repeat share of the timed programs: {share:.3f}")
    answered = [
        (operations[index], reply["results"])
        for operations, replies in ((warm, warm_results), (window, results))
        for index, _, reply in replies
        if reply.get("ok")
    ]
    return check_replies(run, answered), counts, metrics


LADDER_PER_TEMPLATE = 8
WARM_PER_TEMPLATE = 2
STEPS = ("engine.unsharded", "engine.sharded", "serving.pool", "serving.router", "serving.http")


def fresh_programs(window) -> tuple[list, list]:
    """Ladder and warm-up programs: never-repeated ones, per template."""
    by_template: dict[str, list] = {template: [] for template in SPINQL_TEMPLATES}
    rounds = len(SPINQL_TEMPLATES)
    for index, operation in enumerate(window):
        if (index // rounds) % HOT_ROUND_EVERY != HOT_ROUND_EVERY - 1:
            by_template[operation[0]].append(operation)
    ladder = [op for ops in by_template.values() for op in ops[:LADDER_PER_TEMPLATE]]
    warm = [
        op
        for ops in by_template.values()
        for op in ops[LADDER_PER_TEMPLATE : LADDER_PER_TEMPLATE + WARM_PER_TEMPLATE]
    ]
    return ladder, warm


def run_traced(run) -> tuple[bool, TemplateCounts, dict]:
    """The layer ladder over distinct programs, then a served pass for counters."""
    from repro.analysis.verifier import CatalogSchemaProvider, verify_plan
    from repro.engine import Engine
    from repro.engine.query import result_pairs
    from repro.pra.evaluator import PRAEvaluator
    from repro.pra.optimizer import optimize_pra
    from repro.pra.plan import PraTop
    from repro.serving import Router, ServingConfig
    from repro.spinql.compiler import compile_script

    graph, served_warm, window = inputs(run)
    ladder, warm = fresh_programs(window)
    # the served pass below starts after the programs the ladder used
    window = window[len(SPINQL_TEMPLATES) * (LADDER_PER_TEMPLATE + WARM_PER_TEMPLATE) * 2 :]
    tracer = Tracer()
    values: dict[str, float] = {}
    counts = TemplateCounts()

    source = Engine().load_triples(graph.triples)
    plain, sharded = run.work / "plain", run.work / "sharded"
    source.save(plain)
    _, values["storage.save_s"] = timed(source.save, sharded, shards=2)
    source.close()
    del graph, source
    release()

    unsharded, open_s = timed(Engine.open, plain, result_cache_size=None)
    values["storage.open_ms"] = open_s * 1000.0
    in_process = Engine.open_sharded(sharded, executor="sharded", result_cache_size=None)
    # the pool's workers are this process's children: closed on every way out
    pool = router = client = None
    try:
        pool = Engine.open_sharded(
            sharded, executor="pool", config=ServingConfig(), result_cache_size=None
        )
        router = Router(pool)
        booting = time.perf_counter()
        server = run.track(ServeProcess(run.root, sharded, run.work / "serve.log"))
        server.wait_ready()
        values["serving.boot_s"] = time.perf_counter() - booting
        client = Client(server.host, server.port)
        evaluator = PRAEvaluator(unsharded.database)
        schemas = CatalogSchemaProvider(unsharded.database, hydrate=False)
        functions = unsharded.database.functions

        def pairs(result, top_k):
            return [[item, float(p)] for item, p in result_pairs(result, top_k)]

        def in_engine(engine, program, top_k):
            query = engine.spinql(program)
            if top_k is None:
                return pairs(query.execute(), None)
            return [list(pair) for pair in query.top(top_k)]

        answered = []
        rows_out, reply_bytes = [], []
        for template, parameter in warm + ladder:
            program, top_k = spinql_program(template, parameter)
            payload = request(template, parameter)
            steps = {
                "engine.unsharded": lambda: in_engine(unsharded, program, top_k),
                "engine.sharded": lambda: in_engine(in_process, program, top_k),
                "serving.pool": lambda: in_engine(pool, program, top_k),
                "serving.router": lambda: router.handle(payload)["results"],
                "serving.http": lambda: client.post(payload)["results"],
            }
            if (template, parameter) in warm:
                for step in STEPS:
                    steps[step]()
                continue
            req = tracer.new_request()
            with tracer.span("request", req) as root:
                with tracer.span("spinql.compile", req, root):
                    plan = compile_script(program, triples_table="triples").final_plan
                if top_k is not None:
                    plan = PraTop(plan, top_k)
                with tracer.span("pra.optimize", req, root):
                    optimized = optimize_pra(plan)
                with tracer.span("analysis.verify", req, root):
                    verify_plan(optimized, schema_provider=schemas, functions=functions)
                with tracer.span("pra.evaluate", req, root):
                    result = evaluator.evaluate(optimized)
                rows_out.append(result.num_rows)
                reply_bytes.append(codec_costs(tracer, req, root, result))
                answers = [pairs(result, top_k)]
                for step in STEPS:
                    with tracer.span(step, req, root):
                        answers.append(steps[step]())
            ok = all(answer == answers[0] for answer in answers)
            counts.add(template, ok)
            if not ok:
                run.note(f"MISMATCH ladder {template}({parameter}): steps disagree")
            answered.append(((template, parameter), answers[0]))
    finally:
        if client is not None:
            client.close()
        if pool is not None:
            pool.close()
        in_process.close()
        unsharded.close()
    correct = all(count[1] == 0 for count in counts.counts.values())

    ladder_ms = {step: tracer.median(step, "ms") for step in STEPS}
    for name in ("spinql.compile", "pra.optimize", "analysis.verify"):
        values[f"{name}_us"] = tracer.median(name, "us")
    values["pra.evaluate_ms"] = tracer.median("pra.evaluate", "ms")
    values["relational.rows_out"] = median(rows_out)
    values["serving.encode_us"] = tracer.median("serving.encode", "us")
    values["serving.decode_us"] = tracer.median("serving.decode", "us")
    values["serving.reply_bytes"] = median(reply_bytes)
    values["engine.scatter_gather_ms"] = ladder_ms["engine.sharded"] - ladder_ms["engine.unsharded"]
    values["serving.pool_ms"] = ladder_ms["serving.pool"] - ladder_ms["engine.sharded"]
    values["serving.router_ms"] = ladder_ms["serving.router"] - ladder_ms["serving.pool"]
    values["serving.http_ms"] = ladder_ms["serving.http"] - ladder_ms["serving.router"]
    run.note("ladder medians (ms): " + ", ".join(f"{s} {v:.3f}" for s, v in ladder_ms.items()))

    passes = ((served_warm, 1e9, 1), (window, run.seconds / 2, ROUND_SIZE))
    for operations, seconds, round_size in passes:
        results, _ = closed_loop(
            server.host, server.port, [request(*op) for op in operations], clients=CLIENTS,
            seconds=seconds, round_size=round_size,
        )
        for index, _, reply in results:
            counts.add(operations[index][0], bool(reply.get("ok")))
            if reply.get("ok"):
                answered.append((operations[index], reply["results"]))
    values.update(served_counters(server))
    run.stop_server(server)
    shutil.rmtree(plain)
    write_trace(run, "spinql", tracer)
    correct = check_replies(run, answered) and correct
    return correct, counts, per_layer_metrics(values)
