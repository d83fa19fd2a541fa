"""The (2,3) pebble game: generic rigidity in the plane by Laman's theorem.

A graph is generically independent in R^2 exactly when every subgraph on
k >= 2 vertices has at most 2k - 3 edges (Laman 1970).  The pebble game
decides this in polynomial time (Jacobs and Hendrickson 1997; Lee and
Streinu 2008): every vertex holds two pebbles, an accepted edge is
directed and takes one pebble from its tail, and an edge is independent
of the accepted ones exactly when four pebbles can be gathered on its
two ends.  A pair is implied (lies in a rigid component) when four
pebbles cannot be gathered on it.
"""

from __future__ import annotations


class PebbleGame:
    """The game after every edge of a graph on vertices 1..vertex_count."""

    def __init__(self, vertex_count: int, edges=()):
        self.pebbles = {v: 2 for v in range(1, vertex_count + 1)}
        self.out = {v: set() for v in self.pebbles}
        self.rank = 0
        for u, v in edges:
            self.add(u, v)

    def add(self, u: int, v: int) -> bool:
        """Accept the edge uv when it is independent of the accepted ones."""
        if not self._gather(u, v):
            return False
        self.out[u].add(v)
        self.pebbles[u] -= 1
        self.rank += 1
        return True

    def with_vertex(self, neighbours) -> "PebbleGame":
        """A new game: this one's state plus a vertex joined to neighbours."""
        game = PebbleGame(0)
        new = len(self.pebbles) + 1
        game.pebbles = {**self.pebbles, new: 2}
        game.out = {v: set(heads) for v, heads in self.out.items()}
        game.out[new] = set()
        game.rank = self.rank
        for u in neighbours:
            game.add(new, u)
        return game

    def _free_one(self, u: int, keep: int) -> bool:
        """Move a free pebble to u along a directed path, reversing it; the
        pebbles on keep are not taken (the path may pass through it)."""
        seen = {u}
        stack = [(u, iter(self.out[u]))]
        while stack:
            w, children = stack[-1]
            x = next(children, None)
            if x is None:
                stack.pop()
                continue
            if x in seen:
                continue
            seen.add(x)
            if x != keep and self.pebbles[x]:
                path = [s[0] for s in stack] + [x]
                for a, b in zip(path, path[1:]):
                    self.out[a].remove(b)
                    self.out[b].add(a)
                self.pebbles[x] -= 1
                self.pebbles[u] += 1
                return True
            stack.append((x, iter(self.out[x])))
        return False

    def _gather(self, u: int, v: int) -> bool:
        """Whether four pebbles can be brought onto u and v (they stay)."""
        while self.pebbles[u] < 2 and self._free_one(u, v):
            pass
        while self.pebbles[v] < 2 and self._free_one(v, u):
            pass
        return self.pebbles[u] + self.pebbles[v] == 4

    def implied(self, u: int, v: int) -> bool:
        """Whether the pair uv adds nothing to the rank."""
        return not self._gather(u, v)

    @property
    def rigid(self) -> bool:
        return self.rank == max(2 * len(self.pebbles) - 3, 0)
