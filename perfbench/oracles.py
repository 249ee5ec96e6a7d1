"""The independent reference answers the benchmark checks the program against.

It shares no relational or storage code with the program:
:class:`TripleOracle` evaluates each SpinQL template of the ``spinql``
workload over the generated triple list in plain Python and orders the reply
as the program promises: probability descending, then the value columns
ascending.
"""

from __future__ import annotations

from collections import defaultdict


class TripleOracle:
    """Plain-Python evaluation of the ``spinql`` workload's templates."""

    def __init__(self, triples: list[tuple]):
        self.by_subject: dict[str, list[tuple]] = defaultdict(list)
        self.by_property: dict[str, list[tuple]] = defaultdict(list)
        for triple in triples:
            self.by_subject[triple[0]].append(triple)
            self.by_property[triple[1]].append(triple)
        self.location = {s: (o, p) for s, _, o, p in self.by_property["location"]}
        self.auction_of = {s: (o, p) for s, _, o, p in self.by_property["hasAuction"]}
        self.condition = {s: p for s, _, _, p in self.by_property["condition"]}

    def _lots(self, category: str, threshold: str) -> list[tuple]:
        return [
            t for t in self.by_property["category"] if t[2] == category and t[0] >= threshold
        ]

    def evaluate(self, template: str, parameter, top_k: int | None) -> list[list]:
        """The reply rows ``[[first value, probability], ...]`` of one program."""
        if template == "lookup":
            rows = [(p, (o,)) for _, _, o, p in self.by_subject.get(parameter, [])]
        elif template == "filter":
            rows = [(p, (s, prop, o)) for s, prop, o, p in self._lots(*parameter)]
        elif template == "join":
            location, threshold = parameter
            rows = [
                (p * self.location[auction][1], (s,))
                for s, _, auction, p in self.by_property["hasAuction"]
                if s >= threshold and self.location.get(auction, (None,))[0] == location
            ]
        elif template == "traverse":
            # forward hop from the selected lots; duplicates of one auction
            # merge under the independence assumption: 1 - prod(1 - p)
            miss: dict[str, float] = {}
            for lot, _, _, p_lot in self._lots(*parameter):
                if lot in self.auction_of:
                    auction, p_edge = self.auction_of[lot]
                    miss[auction] = miss.get(auction, 1.0) * (1.0 - p_lot * p_edge)
            rows = [(1.0 - value, (auction,)) for auction, value in miss.items()]
        elif template == "top":
            rows = [
                (p * self.condition[lot], (lot,))
                for lot, _, _, p in self._lots(*parameter)
                if lot in self.condition
            ]
        else:
            raise ValueError(f"unknown template {template!r}")
        rows.sort(key=lambda row: (-row[0], row[1]))
        if top_k is not None:
            rows = rows[:top_k]
        return [[values[0], probability] for probability, values in rows]
