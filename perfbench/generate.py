"""Seeded input generators for the benchmark workloads.

Everything here depends only on the ``--seed`` argument, so the same seed
always gives byte-identical inputs (see :func:`digest`).  The generators are
modelled on ``repro.workloads.text_collection`` and ``repro.workloads.auctions``
but live in the benchmark on purpose: a change to the program cannot change
what the benchmark feeds it.

* :class:`AuctionGraph` / :func:`spinql_stream` — the ``spinql`` workload:
  the auction graph plus categorical and uncertain lot facts, and a stream of
  SpinQL programs over five templates whose parameters are Zipf-drawn, so a
  share of the programs repeats exactly.
* :meth:`AuctionGraph.lot_batch` / :func:`strategy_queries` — the ``strategy`` workload:
  batches of new lots appended between reads of the Figure 3 strategy.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"

LOCATIONS = (
    "amsterdam", "utrecht", "rotterdam", "eindhoven", "groningen",
    "leiden", "delft", "haarlem", "breda", "zwolle",
)
#: probabilities of the uncertain ``condition`` facts; products with 1.0 are
#: exact in IEEE arithmetic, so the triple evaluator can compare exactly
CONDITION_PROBABILITIES = (0.35, 0.5, 0.65, 0.8, 0.95)
NUM_CATEGORIES = 128
LOTS_PER_AUCTION = 320


class Vocabulary:
    """Pronounceable words with Zipf-distributed sampling."""

    def __init__(self, size: int, seed: int, exponent: float = 1.1):
        rng = random.Random(seed)
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            word = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                for _ in range(rng.randint(2, 4))
            )
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        weights = 1.0 / np.power(np.arange(1, size + 1, dtype=np.float64), exponent)
        self._cumulative = np.cumsum(weights / weights.sum())

    def sample(self, rng: np.random.Generator, count: int) -> list[str]:
        indices = np.searchsorted(self._cumulative, rng.random(count))
        return [self.words[min(int(index), len(self.words) - 1)] for index in indices]


class ZipfChooser:
    """Repeated Zipf draws over a fixed item list (cumulative table built once)."""

    def __init__(self, items: list, exponent: float = 1.1):
        self.items = items
        weights = 1.0 / np.power(np.arange(1, len(items) + 1, dtype=np.float64), exponent)
        self._cumulative = np.cumsum(weights / weights.sum())

    def draw(self, rng: random.Random):
        index = int(np.searchsorted(self._cumulative, rng.random()))
        return self.items[min(index, len(self.items) - 1)]


def digest(payload) -> str:
    """A short, stable digest of JSON-serialisable inputs."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- auction triples -------------------------------------------------------------


def _lot_triples(
    rng: np.random.Generator,
    vocabulary: Vocabulary,
    index: int,
    auction: str,
    auction_terms: list[str],
) -> list[tuple]:
    lot = f"lot{index}"
    shared = [auction_terms[int(i)] for i in rng.integers(0, len(auction_terms), 7)]
    description = " ".join(shared + vocabulary.sample(rng, 18))
    return [
        (lot, "type", "lot", 1.0),
        (lot, "description", description, 1.0),
        (lot, "hasAuction", auction, 1.0),
        (lot, "category", f"cat{int(rng.integers(0, NUM_CATEGORIES))}", 1.0),
        (
            lot,
            "condition",
            "graded",
            CONDITION_PROBABILITIES[int(rng.integers(0, len(CONDITION_PROBABILITIES)))],
        ),
    ]


class AuctionGraph:
    """Auctions with descriptions and locations, and lots that reference them."""

    def __init__(self, seed: int, num_lots: int):
        self.seed = seed
        self.vocabulary = Vocabulary(4000, seed)
        rng = np.random.default_rng(seed)
        num_auctions = max(1, num_lots // LOTS_PER_AUCTION)
        self.auctions = [f"auction{index}" for index in range(1, num_auctions + 1)]
        self.auction_terms: dict[str, list[str]] = {}
        self.triples: list[tuple] = []
        for auction in self.auctions:
            terms = self.vocabulary.sample(rng, 40)
            self.auction_terms[auction] = terms
            self.triples += [
                (auction, "type", "auction", 1.0),
                (auction, "description", " ".join(terms), 1.0),
                (auction, "location", LOCATIONS[int(rng.integers(0, len(LOCATIONS)))], 1.0),
            ]
        for index in range(1, num_lots + 1):
            auction = self.auctions[int(rng.integers(0, num_auctions))]
            self.triples += _lot_triples(
                rng, self.vocabulary, index, auction, self.auction_terms[auction]
            )
        self.num_lots = num_lots

    def lot_batch(self, round_index: int, size: int) -> list[tuple]:
        """The ``size`` new lots appended in write round ``round_index`` (0-based).

        Lot ids continue after the initial lots, so batches never collide, and
        each batch depends only on (seed, round_index).
        """
        rng = np.random.default_rng([self.seed, round_index + 1])
        first = self.num_lots + round_index * size + 1
        batch: list[tuple] = []
        for index in range(first, first + size):
            auction = self.auctions[int(rng.integers(0, len(self.auctions)))]
            batch += _lot_triples(
                rng, self.vocabulary, index, auction, self.auction_terms[auction]
            )
        return batch


def strategy_queries(seed: int, vocabulary: Vocabulary, count: int) -> list[str]:
    """``count`` distinct two-term keyword queries for the auction strategy."""
    rng = random.Random(seed * 104729 + 3)
    pool = vocabulary.words[20:2000]
    seen: set[str] = set()
    queries: list[str] = []
    while len(queries) < count:
        query = " ".join(rng.sample(pool, 2))
        if query not in seen:
            seen.add(query)
            queries.append(query)
    return queries


# -- SpinQL programs ---------------------------------------------------------------

#: the five request templates of the ``spinql`` workload, in round order
SPINQL_TEMPLATES = ("lookup", "filter", "join", "traverse", "top")
TOP_K = 10
#: popular programs per template; every fifth round draws from them
HOT_PROGRAMS = 6
HOT_ROUND_EVERY = 5
WARM_FRESH_ROUNDS = 2
#: lexicographic lower bounds on lot ids ("lot100" .. "lot999")
THRESHOLDS = tuple(f"lot{value}" for value in range(100, 1000))


def spinql_program(template: str, parameter) -> tuple[str, int | None]:
    """The SpinQL source (and ``top_k``) of one template instance."""
    if template == "lookup":
        return f'out = PROJECT [$3] (SELECT [$1="{parameter}"] (triples));', None
    key, threshold = parameter
    lots = f'SELECT [$2="category" and $3="{key}" and $1>="{threshold}"] (triples)'
    if template == "filter":
        return f"out = {lots};", None
    if template == "join":
        return (
            "out = PROJECT [$1] (JOIN INDEPENDENT [$3=$1] ("
            f'SELECT [$2="hasAuction" and $1>="{threshold}"] (triples), '
            f'SELECT [$2="location" and $3="{key}"] (triples)));',
            None,
        )
    if template == "traverse":
        return f"lots = PROJECT [$1] ({lots}); out = TRAVERSE ['hasAuction'] (lots);", None
    if template == "top":
        return (
            "out = PROJECT [$1] (JOIN INDEPENDENT [$1=$1] ("
            f'{lots}, SELECT [$2="condition"] (triples)));',
            TOP_K,
        )
    raise ValueError(f"unknown template {template!r}")


def spinql_stream(seed: int, num_lots: int, rounds: int) -> tuple[list, list]:
    """Warm-up and timed ``(template, parameter)`` operations.

    Each round runs every template once.  Every ``HOT_ROUND_EVERY``-th round
    draws each template's parameter from a Zipf distribution over its
    ``HOT_PROGRAMS`` popular programs — exact repeats, which the warm-up has
    sent twice so the result cache admits them; every other round takes the
    next never-used parameter, so it always runs the whole program.  The
    repeat share is therefore exactly ``1 / HOT_ROUND_EVERY`` of every whole
    number of ``HOT_ROUND_EVERY`` rounds, whatever the seed or the rate.
    """
    rng = random.Random(seed * 15485863 + 5)
    categories = [f"cat{index}" for index in range(NUM_CATEGORIES)]
    spaces = {
        "lookup": [f"lot{index}" for index in range(1, num_lots + 1)],
        "filter": [(c, t) for c in categories for t in THRESHOLDS],
        "join": [(location, t) for location in LOCATIONS for t in THRESHOLDS],
        "traverse": [(c, t) for c in categories for t in THRESHOLDS],
        "top": [(c, t) for c in categories for t in THRESHOLDS],
    }
    hot, fresh = {}, {}
    for template in SPINQL_TEMPLATES:
        space = spaces[template]
        rng.shuffle(space)
        hot[template] = ZipfChooser(space[:HOT_PROGRAMS])
        fresh[template] = iter(space[HOT_PROGRAMS:])
    warm = [
        (template, parameter)
        for _ in range(2)
        for template in SPINQL_TEMPLATES
        for parameter in hot[template].items
    ]
    warm += [
        (template, next(fresh[template]))
        for _ in range(WARM_FRESH_ROUNDS)
        for template in SPINQL_TEMPLATES
    ]
    window = [
        (
            template,
            hot[template].draw(rng)
            if index % HOT_ROUND_EVERY == HOT_ROUND_EVERY - 1
            else next(fresh[template]),
        )
        for index in range(rounds)
        for template in SPINQL_TEMPLATES
    ]
    return warm, window
