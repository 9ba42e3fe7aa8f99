"""Graph core: bitset adjacency, structural predicates, JSON and DOT output.

Vertices are dense indices 0..n-1.  Adjacency is one Python int per vertex,
bit u of adj[v] set iff {u, v} is an edge, so subset predicates run
word-parallel on arbitrary-width ints.  Each job is done one way:
vertices_of lists a mask's vertices (from byte tables below 2^24, which
holds every mask the oracle scans; the hot kernels walk theirs inline,
which measured faster), _edge_pairs walks the edges, induced_p3s the
induced P3s, cb_sides a complete bipartite set's sides (a star's has one
vertex), maximal_family lists a maximal family, and check_cap,
check_choices and colour_tuple check a cap, a kind or mode and a
colouring's length.  The records (Graph, Colouring, Biclique) and all
that the oracle runs live here, so the oracle imports this module alone.
"""

from __future__ import annotations

import os
import sys
from itertools import islice
from operator import itemgetter
from typing import NamedTuple


class InputError(ValueError):
    """Bad user-supplied data: indices out of range, malformed files, ..."""


class CapacityError(RuntimeError):
    """Request exceeds a named brute-force size cap."""


def check_cap(what: str, name: str, size: int, cap: int) -> None:
    """CapacityError naming the requested size and the cap when size is
    over it: "{what} is capped at {name} <= {cap}, got {name}={size}"."""
    if size > cap:
        raise CapacityError(
            f"{what} is capped at {name} <= {cap}, got {name}={size}")


def check_choices(kind: str = "path", mode: str = "biclique") -> None:
    """InputError for a kind other than "path" or "cycle", then for a mode
    other than "biclique" or "star"; a caller names only what it takes."""
    if kind not in ("path", "cycle"):
        raise InputError(f"unknown kind {kind!r}")
    if mode not in ("biclique", "star"):
        raise InputError(f"unknown mode {mode!r}")


def is_int(x) -> bool:
    """True for an int that is not a bool.  JSON true/false load as bool,
    a subclass of int, so a plain isinstance check would let them pass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _byte_table(base: int) -> tuple:
    """For each byte value b, the vertices base + i of its set bits i, as
    a tuple.  Each bit i doubles the list, as the entry of b | 1 << i for
    b < 2^i is b's entry with base + i added: 255 tuples are built, and no
    bit is tested."""
    table = [()]
    for v in range(base, base + 8):
        table += [vs + (v,) for vs in table]
    return tuple(table)


# A mask below 2^24 (every mask the oracle scans) is three lookups.
_T0, _T1, _T2 = map(_byte_table, (0, 8, 16))


def vertices_of(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask, in increasing order: read from the
    byte tables when mask < 2^24, else by a walk over its bits."""
    if mask < 1 << 24:
        return _T0[mask & 255] + _T1[mask >> 8 & 255] + _T2[mask >> 16]
    vs = []
    while mask:
        low = mask & -mask
        vs.append(low.bit_length() - 1)
        mask ^= low
    return tuple(vs)


def cyclic_reach(n: int, i: int, j: int) -> int:
    """Cyclic distance between vertices i and j of an n-cycle."""
    d = (i - j) % n
    return min(d, n - d)


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertex_set(vertices, n: int | None = None) -> tuple[int, ...]:
    """Normalize to a strictly increasing vertex tuple.

    Duplicates, negatives, and (when n is given) out-of-range indices raise
    InputError.
    """
    vs = tuple(sorted(vertices))
    for prev, cur in zip(vs, vs[1:]):
        if prev == cur:
            raise InputError(f"duplicate vertex {cur}")
    if vs and vs[0] < 0:
        raise InputError(f"negative vertex {vs[0]}")
    if vs and n is not None and vs[-1] >= n:
        raise InputError(f"vertex {vs[-1]} out of range for n={n}")
    return vs


def _check_edge(n: int, i: int, j: int) -> None:
    if not (0 <= i < n and 0 <= j < n):
        raise InputError(f"edge ({i}, {j}) out of range for n={n}")
    if i == j:
        raise InputError(f"self-loop edge ({i}, {j})")


class _GraphFields(NamedTuple):
    n: int
    adj: tuple[int, ...]
    label: str | None = None


class Graph(_GraphFields):
    """Immutable undirected simple graph on vertices 0..n-1, checked when it
    is built.  A named tuple rather than a dataclass, since importing
    dataclasses costs every command line run about 12 ms."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...], label: str | None = None):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        if len(adj) != n:
            raise InputError(
                f"adjacency has {len(adj)} rows for {n} vertices")
        for v, row in enumerate(adj):
            if row >> n:
                raise InputError(f"vertex {v} has a neighbour outside [0, {n})")
            if row >> v & 1:
                raise InputError(f"self-loop at vertex {v}")
            for u in vertices_of(row):
                if not adj[u] >> v & 1:
                    raise InputError(f"asymmetric adjacency between {v} and {u}")
        return super().__new__(cls, n, adj, label)

    @staticmethod
    def from_edges(n: int, edges, label: str | None = None) -> "Graph":
        """The graph on n vertices with these edge pairs.  Each pair is
        checked and sets both its bits, so the rows need none of Graph's
        checks; only a negative n is left to reject, after the edges."""
        adj = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n and i != j):
                _check_edge(n, i, j)  # raises, naming the fault
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        if n < 0:
            raise InputError("vertex count must be non-negative")
        return tuple.__new__(Graph, (n, tuple(adj), label))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbours(self, v: int) -> tuple[int, ...]:
        """The neighbours of v, in increasing order."""
        return vertices_of(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """Edge list, each pair once with i < j, lexicographically sorted."""
        return [(i, j) for i, j in _edge_pairs(self.adj)]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


class _ColouringFields(NamedTuple):
    colours: tuple[int, ...]
    num_colours: int


class Colouring(_ColouringFields):
    """Vertex colouring: colours[v] is the colour id of vertex v.

    Invariant: num_colours is an int >= 0 and every id in [0, num_colours)
    is used at least once, checked when it is built.  A named tuple, as
    Graph is, since importing dataclasses costs every command line run
    about 12 ms.
    """

    __slots__ = ()

    def __new__(cls, colours: tuple[int, ...], num_colours: int):
        if not (is_int(num_colours) and num_colours >= 0):
            raise InputError('"num_colours" must be a non-negative integer')
        used = set(colours)
        for c in used:
            if not 0 <= c < num_colours:
                raise InputError(
                    f"colour id {c} outside [0, {num_colours})")
        if len(used) != num_colours:
            # num_colours comes from the file, so at most 20 of the missing
            # ids are listed rather than all of range(num_colours)
            missing = list(islice(
                (c for c in range(num_colours) if c not in used), 21))
            shown = ", ".join(map(str, missing[:20]))
            if len(missing) > 20:
                shown += ", ..."
            raise InputError(f"colour ids [{shown}] unused")
        return super().__new__(cls, colours, num_colours)

    @staticmethod
    def from_sequence(colours) -> "Colouring":
        cs = tuple(colours)
        return Colouring(cs, max(cs) + 1 if cs else 0)

    @property
    def n(self) -> int:
        return len(self.colours)


# ---------------------------------------------------------------------------
# structural predicates (mask level, shared by the enumeration modules)

def cb_sides(adj, smask: int):
    """Bipartition masks if smask induces a complete bipartite graph with at
    least one edge, else None: (side containing the lowest vertex v0, other
    side).  The sides are forced, b being N(v0) inside the set, so one walk
    checks that each vertex's row inside the set is the side it is not on.
    """
    low = smask & -smask
    b = adj[low.bit_length() - 1] & smask
    a = smask ^ b
    rest = smask ^ low  # v0's row inside the set is b
    while rest:
        low = rest & -rest
        if adj[low.bit_length() - 1] & smask != (a if low & b else b):
            return None
        rest ^= low
    return (a, b) if b else None


def is_maximal_cb(adj, smask: int, sides) -> bool:
    """True if no single vertex extends the complete bipartite set smask to a
    larger complete bipartite set.  sides is cb_sides(adj, smask), which
    every caller already holds: the enumerator yields sets as their sides.

    smask is connected, so its bipartition (a, b) is forced, and a vertex w
    outside extends it when it sees all of one side and none of the other.
    With AND_x / OR_x the AND / OR of the rows of side x, the extenders are
    (AND_b & ~OR_a | AND_a & ~OR_b) & ~smask: |smask| row operations.
    """
    a, b = sides
    low = a & -a
    and_a = or_a = adj[low.bit_length() - 1]
    a ^= low
    while a:
        low = a & -a
        row = adj[low.bit_length() - 1]
        and_a &= row
        or_a |= row
        a ^= low
    low = b & -b
    and_b = or_b = adj[low.bit_length() - 1]
    b ^= low
    while b:
        low = b & -b
        row = adj[low.bit_length() - 1]
        and_b &= row
        or_b |= row
        b ^= low
    return not (and_b & ~or_a | and_a & ~or_b) & ~smask


def is_star_set(adj, smask: int) -> bool:
    """True if smask induces a star K_{1,q} with q >= 1: a complete
    bipartite set (cb_sides) with a one-vertex side, the centre."""
    sides = cb_sides(adj, smask)
    return sides is not None and any(s & (s - 1) == 0 for s in sides)


def is_maximal_star(adj, smask: int) -> bool:
    """True if no single vertex extends the star smask (is_star_set holds)
    to a larger star.

    A vertex w cannot be the centre of smask | w, since smask has an edge
    between two would-be leaves; so w sees one centre c of smask and no
    leaf.  With three or more vertices c is unique, and the extenders are
    N(c) less the leaves' rows; those of an edge {u, v} are N(u) ^ N(v)
    outside it.  Either way at most |smask| row operations.
    """
    low = smask & -smask
    row = adj[low.bit_length() - 1]
    nb = row & smask
    if nb != smask ^ low:    # v0 is a leaf of the centre nb
        centre = nb
    elif nb & (nb - 1):      # v0 sees all the others: it is the centre
        centre = low
    else:                    # an edge: a leaf of either end extends it
        return not (row ^ adj[nb.bit_length() - 1]) & ~smask
    leaves = smask ^ centre
    ext = adj[centre.bit_length() - 1] & ~smask
    while leaves and ext:
        low = leaves & -leaves
        ext &= ~adj[low.bit_length() - 1]
        leaves ^= low
    return not ext


# ---------------------------------------------------------------------------
# output-sensitive enumeration (mask level)

# Reach of the enumerations, which scan no subsets: the size that the tests'
# reference for them, an exhaustive subset scan, covers in minutes.
SUBSET_SCAN_CAP = 22


def maximal_independent_subsets(adj, mask: int):
    """Every maximal independent subset of the vertex mask, each once.

    Two kinds of mask are answered without a search, in the order the
    search would give: an independent mask (as is every mask of at most
    one vertex) yields itself, and a clique yields each of its vertices,
    the highest first.  The lowest vertex's row tells which kind the mask
    can be, and since every edge inside the mask is seen from its lower
    end, one walk over the rows of the others but the highest settles it.
    Every mask of two vertices is one kind or the other, and most masks
    that the enumerators pass (a biclique's A' choices, a star's leaves)
    are too.

    Bron-Kerbosch on the complement graph: choosing a vertex drops its
    neighbours from the candidates and from the excluded vertices, and a
    vertex that has been branched on is excluded from its later siblings,
    so a set is maximal exactly when neither candidates nor excluded
    vertices remain.  A maximal set holds the lowest candidate or excluded
    vertex p or one of p's neighbours, so only those are branched on.
    """
    rest = mask & (mask - 1)  # the mask less its lowest vertex
    if not rest or not (inner := adj[(mask ^ rest).bit_length() - 1] & mask):
        while rest & (rest - 1):  # independent: no row meets the mask
            low = rest & -rest
            if adj[low.bit_length() - 1] & mask:
                break
            rest ^= low
        else:
            yield mask
            return
    elif inner == rest:
        while rest & (rest - 1):  # a clique: each row is mask ^ low
            low = rest & -rest
            if adj[low.bit_length() - 1] & mask != mask ^ low:
                break
            rest ^= low
        else:
            while mask:
                top = 1 << mask.bit_length() - 1
                yield top
                mask ^= top
            return
    stack = [(0, mask, 0)]
    while stack:
        chosen, cand, excl = stack.pop()
        pool = cand | excl
        if not pool:
            yield chosen
            continue
        p = (pool & -pool).bit_length() - 1
        branch = cand & (adj[p] | 1 << p)
        while branch:
            low = branch & -branch
            branch ^= low
            drop = adj[low.bit_length() - 1] | low
            stack.append((chosen | low, cand & ~drop, excl & ~drop))
            cand ^= low
            excl |= low


def maximal_cb_candidates(adj, vmask: int):
    """Side masks (a, b) of complete bipartite sets with an edge inside the
    vertex mask vmask, among them every such set that no vertex of vmask
    extends and no vertex outside vmask extends by joining b (see below);
    grouped by lowest vertex (a's lowest bit), in increasing order.  Callers
    pass the yielded (a, b) to is_maximal_cb as the sides of a | b.

    The bipartition of a complete bipartite set S with an edge is forced:
    with v0 its lowest vertex, b = N(v0) & S and a is v0 plus A'.  So S is
    one triple (v0, b, A'): b a non-empty independent subset of the
    vertices of N(v0) & vmask above v0, and A' an independent subset of
    the vertices of vmask above v0 outside N(v0) that see all of b.  If no
    vertex of vmask extends S, A' is a maximal independent subset of those
    vertices, since any one left out would join a; so only maximal A' are
    listed, and with at most one vertex free to join A' that is A' itself.
    b is grown in increasing vertex order, and a vertex x skipped while
    growing it, or a neighbour of v0 outside vmask, stays excluded
    while it misses all of b.  If x sees every vertex that can still join
    A', x would join b of each set built on this b, so none is listed; and
    if x also misses every vertex still free to join b, that holds for the
    whole branch, so it is cut.  One pass over the excluded vertices makes
    both tests.
    """
    rest = vmask
    while rest:
        a0 = rest & -rest
        rest ^= a0
        row = adj[a0.bit_length() - 1]
        # (b, free to join b, excluded from b, free to join A')
        stack = [(0, row & rest, row & ~vmask, rest & ~row)]
        while stack:
            b, free, excl, common = stack.pop()
            cut = joined = False
            pending = excl
            while pending:
                x = pending & -pending
                pending ^= x
                nx = adj[x.bit_length() - 1]
                if common & nx == common:  # x sees all of common: joins b
                    if not free & nx:      # ... in every set of the branch
                        cut = True
                        break
                    joined = True
            if cut:
                continue
            if b and not joined:
                if common & (common - 1):
                    for extra in maximal_independent_subsets(adj, common):
                        yield a0 | extra, b
                else:
                    yield a0 | common, b
            while free:
                low = free & -free
                free ^= low
                nb = adj[low.bit_length() - 1]
                stack.append((b | low, free & ~nb, excl & ~nb, common & nb))
                excl |= low


def maximal_star_candidates(adj, vmask: int):
    """Masks of stars inside the vertex mask vmask, each once, among them
    every one that no vertex of vmask extends: each centre c in vmask with
    a non-empty maximal independent subset of N(c) & vmask as its leaves,
    since a leaf left out would extend the star.  Each is a star, as its
    leaves are independent neighbours of c; maximal_masks tests each with
    is_maximal_star.  A single edge {c, l} is maximal only when {l} is a
    maximal independent set of N(c) and {c} one of N(l), so it is yielded
    from its lower end only (K_n gives n(n-1)/2 candidates, not n(n-1)).
    """
    for c, row in enumerate(adj):
        if vmask >> c & 1:
            for leaves in maximal_independent_subsets(adj, row & vmask):
                if leaves & (leaves - 1) or leaves > 1 << c:
                    yield 1 << c | leaves


def maximal_masks(adj, mode: str, vmask: int) -> list[int]:
    """Masks of the maximal stars (mode "star") or else the maximal
    bicliques of the graph that lie inside the vertex mask vmask, each once
    and in the enumerator's order: its candidates that pass is_maximal_star
    or is_maximal_cb."""
    if mode == "star":
        return [m for m in maximal_star_candidates(adj, vmask)
                if is_maximal_star(adj, m)]
    return [m for sides in maximal_cb_candidates(adj, vmask)
            if is_maximal_cb(adj, m := sides[0] | sides[1], sides)]


def colour_tuple(colouring, n: int) -> tuple[int, ...]:
    """A Colouring's or sequence's colours as a tuple; InputError unless n."""
    colours = tuple(getattr(colouring, "colours", colouring))
    if len(colours) != n:
        raise InputError(f"colouring has {len(colours)} entries for n={n}")
    return colours


def colour_classes(colours) -> dict:
    """Each colour mapped to the vertex mask of its class, by first use."""
    classes: dict = {}
    for v, c in enumerate(colours):
        classes[c] = classes.get(c, 0) | 1 << v
    return classes


def _smallest_maximal_cb(adj, vmask: int):
    """The lexicographically smallest maximal biclique inside vmask as a
    vertex tuple, or None.  Every set of a lowest-vertex group begins with
    that vertex and the groups come in increasing order, so the search
    stops at the first candidate past the first group holding a set."""
    best = group = None
    for sides in maximal_cb_candidates(adj, vmask):
        a, b = sides
        if best is not None and a & -a != group:
            break
        if is_maximal_cb(adj, a | b, sides):
            vs = vertices_of(a | b)
            if best is None or vs < best:
                best, group = vs, a & -a
    return best


def smallest_maximal_inside(adj, mode: str, vmasks) -> list[tuple[int, ...]]:
    """For each vertex mask in vmasks that holds a maximal star (mode
    "star") or else a maximal biclique of the whole graph, the
    lexicographically smallest one as a vertex tuple: the oracle's check of
    a colouring (a mask per colour class) and the check of containment.
    The work grows with the sets inside each mask, not with the whole
    family, and the biclique search stops early (_smallest_maximal_cb)."""
    found = (min(map(vertices_of, maximal_masks(adj, mode, m)), default=None)
             if mode == "star" else _smallest_maximal_cb(adj, m)
             for m in vmasks)
    return [vs for vs in found if vs is not None]


# shape of a complete bipartite set by the sizes of its two sides
_SHAPES = {(1, 1): "P2", (1, 2): "P3", (2, 1): "P3", (2, 2): "C4"}


class Biclique(NamedTuple):
    """Maximal complete bipartite vertex set with its induced shape; reach,
    the sum of a P3's two edge lengths, is set only on cycle powers."""

    vertices: tuple[int, ...]
    shape: str  # "P2" | "P3" | "C4" | "OTHER"
    reach: int | None = None


def maximal_family(adj, mode: str) -> list:
    """The maximal stars (mode "star", as vertex tuples) or else bicliques
    of the whole graph, sorted.  A biclique is a Biclique record with no
    reach, built in the one pass over maximal_cb_candidates that checks
    each candidate: its shape is "P2" for sides of 1+1 vertices, "P3" for
    1+2 or 2+1, "C4" for 2+2 and else "OTHER".  tuple.__new__ skips
    Biclique.__new__.  The records are sorted on their vertex tuples
    alone, which no two share, so the order is that of the records while
    the sort compares plain int tuples."""
    vmask = (1 << len(adj)) - 1
    if mode == "star":
        return sorted(map(vertices_of, maximal_masks(adj, mode, vmask)))
    new = tuple.__new__
    out = []
    for sides in maximal_cb_candidates(adj, vmask):
        a, b = sides
        if is_maximal_cb(adj, m := a | b, sides):
            out.append(new(Biclique, (
                vertices_of(m),
                _SHAPES.get((a.bit_count(), b.bit_count()), "OTHER"), None)))
    out.sort(key=itemgetter(0))
    return out


def contains_k4(g: Graph):
    """Lexicographically first 4-clique, or None.

    For a < b < c taken in increasing order along edges ab, ac, bc, the
    least fourth vertex is the lowest bit of N(a) & N(b) & N(c) above c, so
    the first hit is the lexicographically first clique.
    """
    adj = g.adj
    for a in range(g.n):
        bs = adj[a] >> (a + 1) << (a + 1)
        while bs:
            low = bs & -bs
            b = low.bit_length() - 1
            ab = adj[a] & adj[b]
            cs = ab >> (b + 1) << (b + 1)
            while cs:
                low_c = cs & -cs
                c = low_c.bit_length() - 1
                ds = (ab & adj[c]) >> (c + 1)
                if ds:
                    return a, b, c, c + (ds & -ds).bit_length()
                cs ^= low_c
            bs ^= low
    return None


def induced_p3s(adj):
    """Yield every induced P3 (a, b, c, centre) with a < b < c, in
    increasing (a, b, c): for a pair a < b the c > b that complete one are
    N(a) ^ N(b) when ab is an edge (the centre is whichever of a, b sees c)
    and N(a) & N(b) when it is not (c is the centre), so each triple is met
    once."""
    full = (1 << len(adj)) - 1
    for a, row in enumerate(adj):
        bs = full >> (a + 1) << (a + 1)
        while bs:
            low = bs & -bs
            bs ^= low  # now the vertices above b
            b = low.bit_length() - 1
            edge = row >> b & 1
            cs = (row ^ adj[b] if edge else row & adj[b]) & bs
            while cs:
                low_c = cs & -cs
                cs ^= low_c
                c = low_c.bit_length() - 1
                yield a, b, c, (a if row & low_c else b) if edge else c


def contains_induced_c4(g: Graph):
    """Lexicographically first induced 4-cycle, or None.

    Dropping the highest vertex d of an induced C4 leaves an induced P3 on
    a < b < c whose two ends are the neighbours of d and whose centre is
    not (induced_p3s).  The least d is the lowest bit above c of
    N(end) & N(end') & ~N(centre), so the first hit in increasing
    (a, b, c) is the lexicographically first C4.
    """
    adj = g.adj
    for a, b, c, centre in induced_p3s(adj):
        x, y = (b, c) if centre == a else (a, c) if centre == b else (a, b)
        ds = (adj[x] & adj[y] & ~adj[centre]) >> (c + 1)
        if ds:
            return a, b, c, c + (ds & -ds).bit_length()
    return None


# ---------------------------------------------------------------------------
# serialization

def _edge_pairs(adj):
    """Yield each edge once as a list [i, j], i < j, in lexicographic order
    (graph_to_dict writes them as they come): the one walk over edges."""
    for i, row in enumerate(adj):
        row >>= i + 1  # the neighbours above i, shifted down by i + 1
        while row:
            low = row & -row
            yield [i, i + low.bit_length()]
            row ^= low


def graph_to_dict(g: Graph) -> dict:
    """{"n", "edges", "label"} of g, each edge [i, j] once with i < j in
    lexicographic order (as g.edges())."""
    d: dict = {"n": g.n, "edges": list(_edge_pairs(g.adj))}
    if g.label is not None:
        d["label"] = g.label
    return d


def graph_fields(d: dict) -> tuple[int, list[list[int]], str | None]:
    """(n, edges, label) of a graph object, edges its own list of [i, j]
    entries, not copied, after the checks that building it makes but before
    its n adjacency rows are allocated: a caller can then reject other input
    cheaply even when the declared n is huge.  The label is checked first,
    then each entry's shape and range in turn, then n >= 0."""
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise InputError('graph object needs "n" and "edges" keys')
    n = d["n"]
    if not is_int(n):
        raise InputError('"n" must be an integer')
    edges = d["edges"]
    if not isinstance(edges, list):
        raise InputError('"edges" must be a list of pairs')
    label = d.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError('"label" must be a string')
    # The per-edge checks are is_int and _check_edge written inline: a file
    # may hold millions of edges, and a call per edge doubles the time.
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2
                and isinstance(i := e[0], int) and not isinstance(i, bool)
                and isinstance(j := e[1], int) and not isinstance(j, bool)):
            raise InputError(f"malformed edge entry {e!r}")
        if not (0 <= i < n and 0 <= j < n and i != j):
            _check_edge(n, i, j)
    if n < 0:
        raise InputError("vertex count must be non-negative")
    return n, edges, label


# Bytes of one input file (graph, colouring or DIMACS), checked before it is
# read: every graph gen writes under the command line's EDGES_CAP is below it
# (C_20000^50 writes 26.9 MB); the figures at the cap are in README.md.
INPUT_CAP = 32_000_000


def read_text(path: str) -> str:
    """The contents of the UTF-8 text file at path, newlines translated as
    when reading lines; other bytes are an InputError that names the file.
    More than INPUT_CAP bytes is a CapacityError, found from a file's size
    before any of it is read (parsing holds 10-20 times the file's size),
    or for a pipe, whose size reads 0, by reading INPUT_CAP + 1 bytes at
    most; that read allocates them all at once, so a sized file is read
    whole."""
    what = f"reading {path}"
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        check_cap(what, "bytes", size, INPUT_CAP)
        data = fh.read() if size else fh.read(INPUT_CAP + 1)
    check_cap(what, "bytes", len(data), INPUT_CAP)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(
            f"{path}: byte {e.start}: not UTF-8 text ({e.reason})") from e
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path: str):
    """The JSON value stored at path; a syntax error, an integer too long
    to convert or nesting too deep for the parser is an InputError that
    names the file."""
    import json
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno}: {e.msg}") from e
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


def read_graph(path: str) -> Graph:
    return Graph.from_edges(*graph_fields(read_json(path)))


def write_json(value, path: str | None = None) -> None:
    """value as indent-1 JSON and a newline, to the file at path or stdout,
    streamed by json.dump rather than held whole as one string."""
    import json
    if path is None:
        json.dump(value, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return
    with open(path, "w") as fh:
        json.dump(value, fh, indent=1)
        fh.write("\n")


def write_graph(g: Graph, path: str) -> None:
    write_json(graph_to_dict(g), path)


# colour ids 0.. map onto this fixed palette (mod 8) in DOT output
DOT_PALETTE = (
    "#4477aa",  # 0 blue
    "#ee6677",  # 1 red
    "#228833",  # 2 green
    "#ccbb44",  # 3 yellow
    "#66ccee",  # 4 cyan
    "#aa3377",  # 5 purple
    "#ee8866",  # 6 orange
    "#bbbbbb",  # 7 grey
)


def write_dot(g: Graph, colours=None) -> str:
    """Graphviz source for g; vertices filled by colour id when given."""
    import json
    if colours is not None:
        colours = colour_tuple(colours, g.n)
    name = json.dumps(g.label or "g")
    lines = [f"graph {name} {{"]
    lines.append("  node [shape=circle, style=filled];")
    for v in range(g.n):
        fill = "white" if colours is None \
            else DOT_PALETTE[colours[v] % len(DOT_PALETTE)]
        lines.append(f'  {v} [fillcolor="{fill}"];')
    lines.extend(f"  {i} -- {j};" for i, j in _edge_pairs(g.adj))
    lines.append("}")
    return "\n".join(lines) + "\n"
