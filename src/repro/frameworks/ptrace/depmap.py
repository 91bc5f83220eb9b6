"""Inter-node dependency maps.

"//TRACE creates inter-node dependency maps for use in generating accurate
replayable traces of parallel applications" (§4.3).  A dependency edge
``i -> r`` means throttling node ``i``'s I/O measurably stalled rank
``r``'s progress — causal coupling, discovered empirically, never assumed
from program structure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["DependencyMap"]


class DependencyMap:
    """A weighted digraph of discovered causal dependencies between ranks."""

    def __init__(self, n_ranks: int):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        #: ``(src, dst) -> sensitivity`` for every discovered edge
        self.edges: Dict[Tuple[int, int], float] = {}
        #: nodes that were actually throttled (absence of an edge from an
        #: unprobed node is ignorance, not independence)
        self.probed: set = set()

    def mark_probed(self, node: int) -> None:
        """Record that ``node`` was actually throttled (probed)."""
        self.probed.add(node)

    def add_dependency(self, src: int, dst: int, sensitivity: float) -> None:
        """Record that throttling ``src`` stalled ``dst`` (weight in [0,1])."""
        if src == dst:
            return
        self.edges[src, dst] = float(sensitivity)

    # -- queries --------------------------------------------------------------

    def depends_on(self, dst: int, src: int) -> bool:
        """Was rank ``dst`` observed to stall when ``src`` was throttled?"""
        return (src, dst) in self.edges

    def dependents_of(self, src: int) -> List[int]:
        """Ranks that stalled when ``src`` was throttled, sorted."""
        return sorted(d for s, d in self.edges if s == src)

    def sensitivity(self, src: int, dst: int) -> float:
        """Edge weight (throughput-drop fraction), 0 when absent."""
        return self.edges.get((src, dst), 0.0)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def density(self) -> float:
        """Edges found per probed-source/possible-destination pair."""
        possible = len(self.probed) * (self.n_ranks - 1)
        if possible == 0:
            return 0.0
        found = sum(1 for s, _ in self.edges if s in self.probed)
        return found / possible

    def coupled_ranks(self) -> List[int]:
        """Ranks participating in any discovered dependency."""
        involved = set()
        for s, d in self.edges:
            involved.add(s)
            involved.add(d)
        return sorted(involved)

    def is_globally_coupled(self, min_fraction: float = 0.5) -> bool:
        """Do discovered dependencies span most of the job?

        True when at least ``min_fraction`` of ranks appear in some edge —
        the signature of collectively-synchronized applications.
        """
        if self.n_ranks <= 1:
            return False
        return len(self.coupled_ranks()) >= min_fraction * self.n_ranks

    def render(self) -> str:
        """Human-readable edge list."""
        lines = [
            "# //TRACE dependency map: %d ranks, %d probed, %d edges"
            % (self.n_ranks, len(self.probed), self.n_edges)
        ]
        for (s, d), sensitivity in sorted(self.edges.items()):
            lines.append(
                "  node %d -> rank %d (sensitivity %.2f)" % (s, d, sensitivity)
            )
        return "\n".join(lines) + "\n"
