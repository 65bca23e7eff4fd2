"""Independent models the workloads check the program against.

Neither model imports the module it checks: the static baseline is
re-derived from the paper's rule (``h(k) = k mod n`` placement, per-node
LRU), and the eviction window from the λ(k) definition in DESIGN.md §1,
scored by brute force over the live slices.
"""

from __future__ import annotations

from collections import OrderedDict, deque


def lru_static_hits(keys, n_nodes: int, per_node: int) -> int:
    """Hits of a static-``n_nodes`` cache holding ``per_node`` equal-sized
    records per node, replaying ``keys`` (every miss inserts)."""
    nodes = [OrderedDict() for _ in range(n_nodes)]
    hits = 0
    for key in keys.tolist():
        node = nodes[key % n_nodes]
        if key in node:
            node.move_to_end(key)
            hits += 1
            continue
        if len(node) >= per_node:
            node.popitem(last=False)
        node[key] = None
    return hits


class WindowCacheModel:
    """A cache that never loses a record except to the sliding window.

    ``query`` reports a hit when the key is resident and caches it
    otherwise; ``end_slice`` closes the current slice and, once more
    than ``m`` slices are closed, scores every key of the oldest one::

        λ(k) = Σ_{i=1..m} α^{i-1} · |{k ∈ t_i}|      (t_1 newest)

    and evicts the key when ``λ(k) < threshold``.
    """

    def __init__(self, m: int, alpha: float, threshold: float) -> None:
        self.m = m
        self.alpha = alpha
        self.threshold = threshold
        self.slices: deque[dict[int, int]] = deque()
        self.current: dict[int, int] = {}
        self.resident: set[int] = set()
        self.hits = 0
        self.evicted = 0

    def query(self, key: int) -> bool:
        self.current[key] = self.current.get(key, 0) + 1
        if key in self.resident:
            self.hits += 1
            return True
        self.resident.add(key)
        return False

    def end_slice(self) -> None:
        self.slices.append(self.current)
        self.current = {}
        if len(self.slices) <= self.m:
            return
        expired = self.slices.popleft()
        newest = len(self.slices) - 1
        for key in expired:
            lam = 0.0
            for age_index, counts in enumerate(self.slices):
                count = counts.get(key, 0)
                if count:
                    lam += (self.alpha ** (newest - age_index)) * count
            if lam < self.threshold and key in self.resident:
                self.resident.discard(key)
                self.evicted += 1
