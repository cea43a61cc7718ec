"""Graph container, edge-list parsing, and generators for test instances."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GenerationFailedError, GraphParseError
from .seedstream import SeedStream, shuffled


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction; adjacency lists are sorted ascending and
    max_degree is cached.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)
    max_degree: int

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def m(self) -> int:
        return len(self.edges)


def build_graph(n: int, edges) -> Graph:
    """Validate and assemble a Graph from an iterable of vertex pairs."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adj)
    max_degree = max((len(a) for a in adjacency), default=0)
    return Graph(n=n, edges=frozenset(seen), adjacency=adjacency, max_degree=max_degree)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First line "n m", then m lines "u v". Rejects self-loops, duplicate
    edges, out-of-range vertices, and malformed lines, naming the 1-based
    line number in the error.
    """
    lines = text.splitlines()
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in stripped if ln and not ln.startswith("#")]
    if not rows:
        raise GraphParseError("empty input: expected header line 'n m'")
    head_no, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise GraphParseError(f"line {head_no}: expected header 'n m', got {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {head_no}: non-integer header {head!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError(f"line {head_no}: negative counts in header")
    body = rows[1:]
    if len(body) != m:
        raise GraphParseError(f"expected {m} edge lines, found {len(body)}")
    first_line: dict[tuple[int, int], int] = {}
    for no, ln in body:
        fields = ln.split()
        if len(fields) != 2:
            raise GraphParseError(f"line {no}: expected 'u v', got {ln!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"line {no}: non-integer vertex in {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {no}: vertex out of range in {ln!r}")
        if u == v:
            raise GraphParseError(f"line {no}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in first_line:
            raise GraphParseError(
                f"line {no}: duplicate edge {key}, first on line {first_line[key]}"
            )
        first_line[key] = no
    return build_graph(n, first_line.keys())


def gen_complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def gen_complete_bipartite(d: int) -> Graph:
    """K_{d,d}: parts {0..d-1} and {d..2d-1}, all cross edges, d-regular."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return build_graph(2 * d, [(u, d + v) for u in range(d) for v in range(d)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_single_vertex() -> Graph:
    return build_graph(1, [])


def _stubs_suitable(edges: set, counts: dict) -> bool:
    # some leftover stub pair must still be placeable, else this attempt is stuck
    if not counts:
        return True
    verts = sorted(counts)
    for i, s1 in enumerate(verts):
        for s2 in verts[i + 1 :]:
            if (s1, s2) not in edges:
                return True
    return False


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """d-regular graph on n vertices via the pairing model.

    Stubs are shuffled and paired; pairs that would create a self-loop or a
    repeated edge put their stubs back for another shuffle, and an attempt
    restarts from scratch only when the leftovers cannot be placed at all.
    Full restarts on any collision would succeed with probability about
    exp(-d^2/4) and are useless beyond tiny degrees. Deterministic given
    (n, d, seed).
    """
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    if d == 0:
        return build_graph(n, [])
    stream = SeedStream(seed)
    restarts = 100
    for attempt in range(restarts):
        edges: set[tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(d)]
        round_no = 0
        while stubs:
            stubs = shuffled(stream.subkey(attempt, round_no), 0, stubs)
            round_no += 1
            leftover: dict[int, int] = {}
            it = iter(stubs)
            for u, v in zip(it, it):
                e = (u, v) if u < v else (v, u)
                if u != v and e not in edges:
                    edges.add(e)
                else:
                    leftover[u] = leftover.get(u, 0) + 1
                    leftover[v] = leftover.get(v, 0) + 1
            if not leftover:
                return build_graph(n, edges)
            if not _stubs_suitable(edges, leftover):
                break
            stubs = [v for v, c in sorted(leftover.items()) for _ in range(c)]
    raise GenerationFailedError(
        f"pairing model failed for (n={n}, d={d}) after {restarts} restarts"
    )

