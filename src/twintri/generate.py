"""Graph generators and contraction-sequence generators.

Sequences come from four sources:

  * twin_sequence: width-0 sequences read off a cotree (so only for
    graphs built together with one),
  * chain_sequence: the left-to-right fold of 1..n, for any n; width 1
    on paths and 2 on cycles,
  * greedy_sequence: works on any graph, contracts the pair that keeps
    the maximum red degree lowest; no optimality guarantee,
  * exact_sequence: exhaustive search returning a true minimum-width
    sequence, feasible only for tiny graphs.

The cotree walks check their own leaves, so each walks a cotree once.
All generators are deterministic given their arguments (and seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .oracle import PlainGraph
from .sequence import ContractionSequence

EXACT_MAX_N = 9
GRAPH_FAMILIES = ("gnp", "cograph", "complete", "path", "cycle", "grid",
                  "star", "petersen")


# -- cotrees and cographs --------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Cotree:
    """Binary-or-wider construction tree: leaves are vertices, internal
    nodes combine their children by disjoint union or complete join.

    An internal node needs at least one child.  The walks, cotree_graph
    and twin_sequence, keep their own stacks, so a cotree of any depth is
    fine, and check the leaves; equality and hashing are by identity and
    repr is object's, so none of them walks the children.
    """

    kind: str  # "leaf", "union", "join"
    vertex: int | None = None
    children: tuple["Cotree", ...] = ()

    def __post_init__(self):
        if self.kind != "leaf" and not self.children:
            raise ValueError(f"{self.kind} node has no children")


def _leaf(v):
    return Cotree("leaf", vertex=v)


def cotree_graph(root: Cotree, n: int) -> PlainGraph:
    """Materialize the graph a cotree describes.

    One walk with its own stack (any depth is fine) also checks the leaves.
    """
    edges = []
    stack = []  # (kind, remaining children, leaves so far) of the open nodes
    kind, children, mine = None, iter((root,)), []
    while True:
        for node in children:
            if node.kind != "leaf":
                stack.append((kind, children, mine))
                kind, children, mine = node.kind, iter(node.children), []
                break
            v = node.vertex
            if kind == "join":
                for a in mine:
                    edges.append((a, v))
            mine.append(v)
        else:
            if not stack:
                if sorted(mine) != list(range(1, n + 1)):
                    raise ValueError("cotree leaves must be exactly 1..n")
                return PlainGraph(n, edges)
            verts = mine
            kind, children, mine = stack.pop()
            if kind == "join":
                for a in mine:
                    for b in verts:
                        edges.append((a, b))
            mine.extend(verts)


def twin_sequence(root: Cotree, n: int) -> ContractionSequence:
    """Width-0 sequence contracting a cotree bottom-up.

    Once a node's children are each reduced to a single vertex, those
    vertices are mutual twins and fold together without creating a red
    edge.  Children fold in left to right, each as soon as it is reduced;
    the walk keeps its own stack, so a cotree of any depth is fine, and
    checks the leaves it meets rather than walking the tree twice.
    """
    pairs = []
    leaves = []
    stack = []  # (remaining children, representative so far) of the open nodes
    children, rep = iter((root,)), None
    while True:
        for node in children:
            if node.kind == "leaf":
                other = node.vertex
                leaves.append(other)
            else:
                stack.append((children, rep))
                children, rep = iter(node.children), None
                break
            if rep is None:
                rep = other
            else:
                pairs.append((rep, other) if rep < other else (other, rep))
                rep = n + len(pairs)
        else:
            if not stack:
                break
            other = rep
            children, rep = stack.pop()
            if rep is None:
                rep = other
            else:
                pairs.append((rep, other) if rep < other else (other, rep))
                rep = n + len(pairs)
    if sorted(leaves) != list(range(1, n + 1)):
        raise ValueError("cotree leaves must be exactly 1..n")
    return ContractionSequence(n, tuple(pairs))


def _random_cotree(ids, rng, join_prob):
    if len(ids) == 1:
        return _leaf(ids[0])
    cut = rng.randint(1, len(ids) - 1)
    kind = "join" if rng.random() < join_prob else "union"
    return Cotree(kind, children=(
        _random_cotree(ids[:cut], rng, join_prob),
        _random_cotree(ids[cut:], rng, join_prob),
    ))


def cograph(n: int, seed: int = 0, join_prob: float = 0.5,
            block_size: int | None = None):
    """Random cograph with its cotree.

    With block_size set, the graph is a disjoint union of random cograph
    blocks of at most that many vertices, which keeps the edge count
    linear in n; otherwise the cotree is a single random binary split.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    ids = list(range(1, n + 1))
    if block_size is None or n <= block_size:
        root = _random_cotree(ids, rng, join_prob)
    else:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        blocks = []
        at = 0
        while at < n:
            width = min(rng.randint(1, block_size), n - at)
            blocks.append(_random_cotree(ids[at:at + width], rng, join_prob))
            at += width
        root = Cotree("union", children=tuple(blocks))
    return cotree_graph(root, n), root


# -- fixed families --------------------------------------------------------


def complete(n: int):
    """K_n with its one-join cotree."""
    if n < 1:
        raise ValueError("need n >= 1")
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    root = Cotree("join", children=tuple(_leaf(v) for v in range(1, n + 1)))
    return PlainGraph(n, edges), root


def star(leaves: int):
    """K_{1,leaves}: center 1 joined to leaves 2..leaves+1, with cotree."""
    if leaves < 1:
        raise ValueError("need at least one leaf")
    n = leaves + 1
    edges = [(1, v) for v in range(2, n + 1)]
    root = Cotree("join", children=(
        _leaf(1),
        Cotree("union", children=tuple(_leaf(v) for v in range(2, n + 1))),
    ))
    return PlainGraph(n, edges), root


def path(n: int) -> PlainGraph:
    if n < 1:
        raise ValueError("need n >= 1")
    return PlainGraph(n, [(v, v + 1) for v in range(1, n)])


def cycle(n: int) -> PlainGraph:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return PlainGraph(n, [(v, v + 1) for v in range(1, n)] + [(n, 1)])


def grid(rows: int, cols: int) -> PlainGraph:
    """rows x cols grid, vertices numbered row-major from 1."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return PlainGraph(rows * cols, edges)


def petersen() -> PlainGraph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(v, v + 5) for v in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return PlainGraph(10, outer + spokes + inner)


def gnp(n: int, p: float, seed: int = 0) -> PlainGraph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v))
    return PlainGraph(n, edges)


def chain_sequence(n: int) -> ContractionSequence:
    """Left-to-right fold: contract (1,2), then the product with 3, and so
    on.  Width 1 on paths and 2 on cycles; handy for long sparse chains
    where greedy search would be wasteful."""
    if n < 1:
        raise ValueError("need n >= 1")
    pairs = []
    for step in range(n - 1):
        left = 1 if step == 0 else n + step
        pairs.append((min(left, step + 2), max(left, step + 2)))
    return ContractionSequence(n, tuple(pairs))


def generate_graph(family: str, seed: int = 0, **params):
    """Dispatcher used by the CLI and the benchmark.

    Returns (graph, cotree-or-None); families built from a cotree return
    it so a width-0 sequence can be derived.
    """
    if family == "gnp":
        return gnp(params["n"], params.get("p", 0.5), seed), None
    if family == "cograph":
        return cograph(params["n"], seed, block_size=params.get("block_size"))
    if family == "complete":
        return complete(params["n"])
    if family == "star":
        return star(params["n"])
    if family == "path":
        return path(params["n"]), None
    if family == "cycle":
        return cycle(params["n"]), None
    if family == "grid":
        return grid(params["rows"], params["cols"]), None
    if family == "petersen":
        return petersen(), None
    raise ValueError(f"unknown family {family!r}; known: {', '.join(GRAPH_FAMILIES)}")


# -- greedy sequence -------------------------------------------------------


def greedy_sequence(graph: PlainGraph):
    """Contract, at every step, the pair giving the smallest maximum red
    degree; ties fall to the smallest resulting total of red edges, then
    to the smallest id pair.  Returns (sequence, witnessed width).

    Candidates are scored a row at a time on bitmask neighborhoods: for
    each slot a, one comprehension popcounts the red set the product with
    every later slot b would have (counting a and b themselves when they
    are adjacent, so the score overshoots by at most 2).  The red set is
    the union of the two neighbor masks less their common black mask,
    a subset of that union, so its size is a difference of two
    popcounts and no negative mask is built.  A row whose
    smallest score already exceeds the best worst degree by more than 2
    is skipped whole; the remaining pairs get the exact red degree, the
    scan of the affected vertices and the full key.  Every skipped pair
    is strictly worse than the best key, so the result is the global
    minimum whatever the order of evaluation; the best key's first entry
    is the step's exact width.

    floor[s], kept across steps, is a lower bound on the smallest score
    in slot s's row (s with every later id).  A step (a, b) changes only
    bits a and b of a surviving mask; they add 0 to 2 to a surviving
    pair's score before it and, after it, 1 when either vertex was
    adjacent to a or b (0 when both are black to both, which added 0
    before) and 0 otherwise, so no surviving score falls by more than 1.
    The product takes the last id and joins every row, so a floor
    becomes min(floor - 1, score with the product).  Rows are visited in
    increasing floor, a scored row's floor becomes its minimum, and the
    first row whose floor exceeds the best worst degree by more than 2
    ends the visit, as every later row does too.  Only pairs worse than
    the best key are skipped, so the output is the full rescan's.  On
    paths and grids every row keeps a near-best pair and nothing is
    skipped.
    """
    n = graph.n
    # slot i (0-based) holds a live vertex; masks index slots
    black = [0] * n
    red = [0] * n
    for u, v in graph.edges:
        black[u - 1] |= 1 << (v - 1)
        black[v - 1] |= 1 << (u - 1)
    ids = list(range(1, n + 1))
    live = list(range(n))
    red_deg = [0] * n
    red_total = 0
    next_id = n + 1
    pairs = []
    width = 0
    floor = [0] * n

    while len(live) > 1:
        live.sort(key=lambda s: ids[s])
        by_degree = sorted(live, key=lambda s: (-red_deg[s], ids[s]))
        blk = [black[s] for s in live]
        nbr = [black[s] | red[s] for s in live]
        # sorts after every real key: no red degree reaches n
        best_key = (n,)
        best = None
        for ai in sorted(range(len(live) - 1), key=lambda ai: floor[live[ai]]):
            a = live[ai]
            if floor[a] > best_key[0] + 2:
                break
            ba, na, ra = blk[ai], nbr[ai], red[a]
            row = [(na | nb).bit_count() - (ba & bb).bit_count()
                   for nb, bb in zip(nbr[ai + 1:], blk[ai + 1:])]
            floor[a] = min(row)
            if floor[a] > best_key[0] + 2:
                continue
            bit_a = 1 << a
            for bi in [bi for bi, score in enumerate(row, ai + 1)
                       if score <= best_key[0] + 2]:
                b = live[bi]
                bb_mask = ba & blk[bi]
                union = (na | nbr[bi]) & ~bit_a & ~(1 << b)
                rr_mask = union & ~bb_mask
                wdeg = rr_mask.bit_count()
                if wdeg > best_key[0]:
                    continue
                worst = wdeg
                affected = union
                rb = red[b]
                while affected:
                    low = affected & -affected
                    affected ^= low
                    x = low.bit_length() - 1
                    deg = red_deg[x]
                    if ra & low:
                        deg -= 1
                    if rb & low:
                        deg -= 1
                    if rr_mask & low:
                        deg += 1
                    if deg > worst:
                        worst = deg
                        if worst > best_key[0]:
                            break
                if worst > best_key[0]:
                    continue
                excluded = union | bit_a | (1 << b)
                for x in by_degree:
                    if not (excluded >> x) & 1:
                        if red_deg[x] > worst:
                            worst = red_deg[x]
                        break
                new_total = (red_total - red_deg[a] - red_deg[b]
                             + ((ra >> b) & 1) + wdeg)
                key = (worst, new_total, ids[a], ids[b])
                if key < best_key:
                    best_key = key
                    best = (a, b, bb_mask, rr_mask, wdeg, union)
        a, b, bb_mask, rr_mask, wdeg, union = best
        pairs.append((ids[a], ids[b]))  # live is in id order, so ids[a] < ids[b]
        width = max(width, best_key[0])
        # fold b into slot a; every red edge at a or b disappears and the
        # product's red edges (rr_mask) take their place
        bit_a, bit_b = 1 << a, 1 << b
        red_total += wdeg - red_deg[a] - red_deg[b] + ((red[a] >> b) & 1)
        scan = union
        while scan:
            low = scan & -scan
            scan ^= low
            x = low.bit_length() - 1
            black[x] &= ~(bit_a | bit_b)
            red[x] &= ~(bit_a | bit_b)
            if rr_mask & low:
                red[x] |= bit_a
            else:
                black[x] |= bit_a
            red_deg[x] = red[x].bit_count()
        black[a] = bb_mask
        red[a] = rr_mask
        red_deg[a] = wdeg
        black[b] = 0
        red[b] = 0
        red_deg[b] = 0
        ids[a] = next_id
        next_id += 1
        live.remove(b)
        # a now holds the last id: its row is empty, and every other row
        # gains the pair with a and loses at most 1 from each old score
        na, ba = black[a] | red[a], black[a]
        for s in live:
            floor[s] = min(floor[s] - 1,
                           (black[s] | red[s] | na).bit_count() - (black[s] & ba).bit_count())
        floor[a] = n
    return ContractionSequence(n, tuple(pairs)), width


# -- exact sequence --------------------------------------------------------


def exact_sequence(graph: PlainGraph, max_n: int = EXACT_MAX_N):
    """Minimum-width sequence by exhaustive search over contraction orders.

    The live trigraph is fully determined by the partition of original
    vertices into groups, so states are memoized by the partition (a
    sorted tuple of bitmasks) and pair colors are cached globally per
    mask pair.  Search runs the width decision problem for d = 0, 1, ...
    up to the greedy width, pruning any contraction whose trigraph
    exceeds d.  Returns (sequence, twin-width).
    """
    n = graph.n
    if n > max_n:
        raise ValueError(
            f"exact search is limited to {max_n} vertices ({n} given); "
            "use the greedy strategy instead")
    greedy_seq, upper = greedy_sequence(graph)
    adj = [0] * (n + 1)
    for u, v in graph.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    color_cache = {}

    def color(p, q):  # 0 none, 1 black, 2 red
        key = (p, q) if p < q else (q, p)
        c = color_cache.get(key)
        if c is None:
            crossing = 0
            m = p
            while m:
                low = m & -m
                m ^= low
                crossing += (adj[low.bit_length() - 1] & q).bit_count()
            if crossing == 0:
                c = 0
            elif crossing == p.bit_count() * q.bit_count():
                c = 1
            else:
                c = 2
            color_cache[key] = c
        return c

    def max_red(parts):
        worst = 0
        for i, p in enumerate(parts):
            deg = 0
            for j, q in enumerate(parts):
                if i != j and color(p, q) == 2:
                    deg += 1
            if deg > worst:
                worst = deg
        return worst

    start = tuple(sorted(1 << v for v in range(1, n + 1)))

    def decide(limit):
        failed = set()
        merges = []

        def go(parts):
            if len(parts) == 1:
                return True
            if parts in failed:
                return False
            count = len(parts)
            for i in range(count):
                for j in range(i + 1, count):
                    fused = parts[i] | parts[j]
                    rest = parts[:i] + parts[i + 1:j] + parts[j + 1:]
                    nxt = tuple(sorted(rest + (fused,)))
                    if max_red(nxt) > limit:
                        continue
                    merges.append((parts[i], parts[j]))
                    if go(nxt):
                        return True
                    merges.pop()
            failed.add(parts)
            return False

        return merges if go(start) else None

    for d in range(upper):
        merges = decide(d)
        if merges is not None:
            id_of = {1 << v: v for v in range(1, n + 1)}
            pairs = []
            fresh = n + 1
            for p, q in merges:
                u, v = id_of.pop(p), id_of.pop(q)
                pairs.append((min(u, v), max(u, v)))
                id_of[p | q] = fresh
                fresh += 1
            return ContractionSequence(n, tuple(pairs)), d
    # nothing below the greedy width works, so greedy was optimal
    return greedy_seq, upper
