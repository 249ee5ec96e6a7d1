"""The ``strategy`` workload: the Figure 3 ``auction`` strategy with writes.

An in-process engine opened from a snapshot answers the auction strategy for
distinct keyword queries, one client in a closed loop.  Every round appends
a batch of new lots (``Engine.load_triples``) and then runs reads; the first
read after a write pays for the statistics the write invalidated.  Writes
count as operations.  There is no served variant: the router has no
``strategy`` request kind.

Set-up (timed, seven times) loads the initial triples, saves a snapshot,
opens it and answers one strategy read.  Only the small generator state that
:meth:`~generate.AuctionGraph.lot_batch` needs outlives the set-up; each
batch is generated when its round starts, outside the measured time.  After
the timed window, top-10 ids and probabilities for sampled queries must
equal those of an engine built in one step from all the triples the run
wrote.
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
    self_peak_rss_mb,
    timed,
)
from generate import AuctionGraph, digest, strategy_queries
from tracing import STRATEGY_BLOCKS, Tracer, per_layer_metrics, write_trace

NUM_LOTS = 4_000
BATCH_LOTS = 40
READS_PER_ROUND = 9
#: write rounds per run at most, the warm pass included
MAX_ROUNDS = 150
#: write rounds per run at least, the warm pass included; ``peak_rss_mb`` is
#: read when they have run, since the engine grows with every write and a
#: peak read at the end would grow with the rounds a faster run completes
MEMORY_ROUNDS = 12
CHECK_QUERIES = 8
TOP_K = 10
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 7
#: the set-up query, the reads of every round and the check queries
NUM_QUERIES = 1 + MAX_ROUNDS * READS_PER_ROUND + CHECK_QUERIES


def set_up(run, triples: list[tuple], first_query: str, repeats: int):
    """Time ``repeats`` set-ups: load, save, open, first strategy answer.

    Returns ``(engine, snapshot, set-up seconds, save seconds, open
    milliseconds)``, with one entry per set-up in each list.
    """
    from repro.engine import Engine

    setups, saves, opens = [], [], []
    engine = snapshot = None
    for attempt in range(repeats):
        if engine is not None:
            engine.close()
            shutil.rmtree(snapshot)
            engine = None
            release()  # the previous set-up's garbage is not this one's cost
        snapshot = run.work / f"snapshot-{attempt}"
        started = time.perf_counter()
        source = Engine().load_triples(triples)
        loaded = time.perf_counter()
        source.save(snapshot)
        source.close()
        saved = time.perf_counter()
        engine = Engine.open(snapshot)
        opened = time.perf_counter()
        engine.strategy("auction", query=first_query).execute()
        setups.append(time.perf_counter() - started)
        saves.append(saved - loaded)
        opens.append((opened - saved) * 1000.0)
    return engine, snapshot, setups, saves, opens


def make_inputs(seed: int):
    graph = AuctionGraph(seed, NUM_LOTS)
    return graph, strategy_queries(seed, graph.vocabulary, NUM_QUERIES)


def inputs(run):
    """:func:`make_inputs` for ``run.seed``; prints their digest."""
    graph, queries = make_inputs(run.seed)
    first_batch = graph.lot_batch(0, BATCH_LOTS)
    fingerprint = [graph.triples[:200], len(graph.triples), first_batch, queries[:200]]
    run.note(f"input digest: strategy {digest(fingerprint)}")
    return graph, queries


def check_appends(run, engine, batches_written: int) -> bool:
    """Appended engine ≡ an engine built in one step from the same triples."""
    from repro.engine import Engine

    graph, queries = make_inputs(run.seed)
    triples = list(graph.triples)
    for index in range(batches_written):
        triples += graph.lot_batch(index, BATCH_LOTS)
    reference = Engine().load_triples(triples)
    correct = True
    try:
        for query in queries[-CHECK_QUERIES:]:
            got = engine.strategy("auction", query=query).execute().top(TOP_K)
            want = reference.strategy("auction", query=query).execute().top(TOP_K)
            if got != want:
                correct = False
                run.note(f"MISMATCH strategy {query!r}: {got[:3]} != one-step {want[:3]}")
    finally:
        reference.close()
    return correct


class Stream:
    """Rounds of one write and ``READS_PER_ROUND`` reads, in a fixed order.

    ``graph`` is an :class:`~generate.AuctionGraph` whose initial triples
    may already be dropped: the stream only calls its ``lot_batch``.
    """

    def __init__(self, engine, graph, queries):
        self.strategy = engine.strategy("auction")
        self.engine = engine
        self.graph = graph
        self.queries = queries
        self.written = 0
        self.read = 0
        #: wall and CPU seconds spent generating batches
        self.generating = [0.0, 0.0]
        self.peak_rss_mb = 0.0

    def round(self, on_op) -> None:
        """Run one round; calls ``on_op(template, start_ns, end_ns, query, run)``
        per operation (``query`` and ``run`` are ``None`` for a write)."""
        wall, cpu = time.perf_counter(), time.process_time()
        batch = self.graph.lot_batch(self.written, BATCH_LOTS)
        self.generating[0] += time.perf_counter() - wall
        self.generating[1] += time.process_time() - cpu
        started = time.perf_counter_ns()
        self.engine.load_triples(batch)
        on_op("write", started, time.perf_counter_ns(), None, None)
        self.written += 1
        for position in range(READS_PER_ROUND):
            query = self.queries[self.read % len(self.queries)]
            self.read += 1
            started = time.perf_counter_ns()
            outcome = self.strategy.execute(query=query)
            ended = time.perf_counter_ns()
            on_op("first_read" if position == 0 else "read", started, ended, query, outcome)

    def run_for(self, seconds: float, on_op) -> tuple[float, float]:
        """Whole rounds until ``seconds`` have passed and ``MEMORY_ROUNDS``
        have run; ``(wall s, CPU s)`` of the program, batch generation left
        out.  Sets :attr:`peak_rss_mb` after round ``MEMORY_ROUNDS``."""
        generated_wall, generated_cpu = self.generating
        cpu_before = time.process_time()
        started = time.perf_counter()
        deadline = started + seconds
        while (
            time.perf_counter() < deadline or self.written < MEMORY_ROUNDS
        ) and self.written < MAX_ROUNDS:
            self.round(on_op)
            if self.written == MEMORY_ROUNDS:
                self.peak_rss_mb = self_peak_rss_mb()
        wall = time.perf_counter() - started - (self.generating[0] - generated_wall)
        cpu = time.process_time() - cpu_before - (self.generating[1] - generated_cpu)
        return wall, cpu


def run_e2e(run) -> tuple[bool, TemplateCounts, dict]:
    graph, queries = inputs(run)
    engine, snapshot, setups, _, _ = set_up(run, graph.triples, queries[0], SETUP_REPEATS)
    graph.triples = None  # the stream needs only the state lot_batch reads
    release()
    try:
        stream = Stream(engine, graph, queries[1:-CHECK_QUERIES])
        stream.round(lambda *_: None)  # the warm pass: one whole round

        counts = TemplateCounts()
        samples: list[float] = []

        def record(template, start_ns, end_ns, _query, _outcome):
            counts.add(template, True)
            samples.append((end_ns - start_ns) / 1e9)

        elapsed, cpu = stream.run_for(run.seconds, record)

        metrics = {"setup_s": (median(setups), "s")}
        metrics.update(latency_metrics(samples, elapsed, cpu))
        metrics["peak_rss_mb"] = (stream.peak_rss_mb, "MiB")
        metrics["snapshot_mb"] = (directory_mb(snapshot), "MiB")
        run.note(f"setup_s samples: {[round(value, 3) for value in setups]}")
        correct = check_appends(run, engine, stream.written)
    finally:
        engine.close()
    return correct, counts, metrics


def run_traced(run) -> tuple[bool, TemplateCounts, dict]:
    """Spans around every write, read and strategy block; per-layer medians."""
    from repro.ir.ranking.bm25 import BM25Model
    from repro.ir.statistics import build_statistics

    graph, queries = inputs(run)
    engine, _, _, saves, opens = set_up(run, graph.triples, queries[0], 1)
    descriptions = [
        (s, o) for s, p, o, _ in graph.triples if p == "description" and s.startswith("lot")
    ]
    graph.triples = None
    release()
    tracer = Tracer()
    counts = TemplateCounts()
    values: dict[str, float] = {
        "storage.save_s": saves[0],
        "storage.open_ms": opens[0],
    }
    blocks: dict[str, list[float]] = {block: [] for block in STRATEGY_BLOCKS}
    try:
        stream = Stream(engine, graph, queries[1:-CHECK_QUERIES])
        order = [name for name in stream.strategy.graph.execution_order() if name in blocks]
        stream.round(lambda *_: None)

        def record(template, start_ns, end_ns, query, outcome):
            counts.add(template, True)
            req = tracer.new_request()
            tracer.add(template, req, None, start_ns, end_ns)
            root = len(tracer.spans)
            if outcome is None:
                tracer.add("triples.load", req, root, start_ns, end_ns)
                return
            with tracer.span("text.analyze", req, root):
                engine.analyzer.analyze_query(query)
            # block spans laid end to end in execution order, from the
            # public per-block timings of the strategy run
            cursor = start_ns
            for block in order:
                duration = int(outcome.block_timings[block] * 1e9)
                tracer.add(f"strategy.{block}", req, root, cursor, cursor + duration)
                cursor += duration
                if template == "read":
                    blocks[block].append(outcome.block_timings[block] * 1000.0)

        stream.run_for(run.seconds, record)
        for block, timings in blocks.items():
            values[f"strategy.{block}_ms"] = median(timings)
        values["strategy.fresh_read_ms"] = tracer.median("first_read", "ms")
        values["triples.load_ms"] = tracer.median("triples.load", "ms")
        values["text.analyze_us"] = tracer.median("text.analyze", "us")
        for index in range(stream.written):
            batch = graph.lot_batch(index, BATCH_LOTS)
            descriptions += [(s, o) for s, p, o, _ in batch if p == "description"]
        statistics, build_s = timed(build_statistics, descriptions, engine.analyzer)
        values["ir.statistics_build_ms"] = build_s * 1000.0
        # the IR layer under the rank blocks: BM25 top-k over the lot
        # descriptions for the queries the reads ran
        model = BM25Model()
        postings = []
        for query in stream.queries[: stream.read]:
            terms = engine.analyzer.analyze_query(query)
            req = tracer.new_request()
            with tracer.span("ir.search", req):
                model.rank(statistics, terms, top_k=TOP_K)
            postings.append(sum(statistics.df(term) for term in terms))
        values["ir.search_ms"] = tracer.median("ir.search", "ms")
        values["ir.postings_per_query"] = median(postings)
        plan = engine.plan_cache.statistics
        lookups = plan.hits + plan.misses
        values["engine.plan_cache_hit_ratio"] = plan.hits / lookups if lookups else 0.0
        correct = check_appends(run, engine, stream.written)
    finally:
        engine.close()
    write_trace(run, "strategy", tracer)
    return correct, counts, per_layer_metrics(values)
