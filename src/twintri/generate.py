"""Graph generators and contraction-sequence generators.

Sequences come from four sources:

  * twin_sequence: width-0 sequences read off a cotree (so only for
    graphs built together with one),
  * chain_sequence: the left-to-right fold of 1..n, for any n; width 1
    on paths and 2 on cycles,
  * greedy_sequence: works on any graph of at most GREEDY_MAX_N
    vertices, contracts the pair that keeps the maximum red degree
    lowest; no optimality guarantee,
  * exact_sequence: exhaustive search returning a true minimum-width
    sequence, feasible only for tiny graphs; it runs no other strategy
    and refuses graphs above max_n or 500 vertices.

The cotree walks check their own leaves, so each walks a cotree once.
All generators are deterministic given their arguments (and seed).
"""

from __future__ import annotations

import functools
import itertools
import random
from array import array

from .oracle import MAX_N, PlainGraph, check_max_n, id_typecode
from .sequence import ContractionSequence

EXACT_MAX_N = 9
_EXACT_CEILING = 500  # exact search refuses larger graphs whatever its max_n
GREEDY_MAX_N = 10_000


# -- cotrees and cographs --------------------------------------------------


class Cotree:
    """Construction tree of a cograph: leaves are vertices, and internal
    nodes combine their children by disjoint union or complete join.

    kind is "leaf", "union" or "join".  A leaf holds an int vertex in
    1..MAX_N, which a C int edge array can hold, and no children; an internal
    node holds no vertex and at least one child, each a Cotree node.
    Children are kept as a tuple, so a generator of them can be walked
    again.  Anything else raises ValueError when the node is built; a
    child is checked only for being a Cotree node, as its own checks ran
    when it was built.  The walks, cotree_graph and twin_sequence, keep
    their own stacks, so a cotree of any depth is fine, and check the
    leaves; equality and hashing are by identity and repr is object's,
    so none of them walks the children.
    """

    __slots__ = ("kind", "vertex", "children")

    def __init__(self, kind, vertex=None, children=()):
        children = tuple(children)
        if kind == "leaf":
            if type(vertex) is not int or not 0 < vertex <= MAX_N or children:
                raise ValueError(
                    f"a leaf holds one int vertex in 1..{MAX_N} and no children")
        elif kind == "union" or kind == "join":
            if vertex is not None:
                raise ValueError(f"{kind} node holds a vertex")
            if not children:
                raise ValueError(f"{kind} node has no children")
            for child in children:
                if not isinstance(child, Cotree):
                    raise ValueError(f"{kind} node has a child that is not a Cotree node")
        else:
            raise ValueError(f"cotree node kind {kind!r}; known: leaf, union, join")
        self.kind = kind
        self.vertex = vertex
        self.children = children


def _check_vertex_count(n: int):
    """Refuse a vertex count below 1, then one above MAX_N."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_max_n(n)


def cotree_graph(root: Cotree, n: int) -> PlainGraph:
    """Materialize the graph a cotree describes, as two edge arrays.

    One walk with its own stack (any depth is fine) meets the leaves from
    right to left and appends each to order.  A leaf's neighbours to its
    right at one join ancestor are the leaves of the join's later
    children, all met just before the leaf: one slice of order, known
    when the walk enters the child that holds the leaf and kept open
    while the walk is inside it.  So each leaf's edges go in together,
    one slice per join ancestor, the farthest first, and reversing both
    arrays at the end puts each vertex's edges together, nearest first.
    When the leaves read 1..n from left to right, as in every cotree the
    package builds, that is canonical order and PlainGraph keeps the
    arrays after its check loop; any other leaf order takes its set and
    sort.  The leaves are checked before the graph is built, a leaf past n
    as the walk meets it, since the arrays' type, id_typecode(n), need not
    hold it.  O(n + m): only non-empty slices are kept open.
    """
    code = id_typecode(n)
    order = array(code)  # the leaves met so far, right to left
    us, vs = array(code), array(code)
    slices = []  # (lo, hi) of order, one per open join child with a later sibling
    stack = []  # (joins, remaining children, start, opened a slice) of the open nodes
    joins, children, start, opened = False, iter((root,)), 0, False
    while True:
        for node in children:
            if node.kind != "leaf":
                stack.append((joins, children, start, opened))
                opened = joins and start < len(order)
                if opened:
                    slices.append((start, len(order)))
                joins, children, start = (node.kind == "join", reversed(node.children),
                                          len(order))
                break
            v = node.vertex
            if v > n:
                raise ValueError("cotree leaves must be exactly 1..n")
            for a, b in slices:
                vs.extend(order[a:b])
                us.extend(itertools.repeat(v, b - a))
            if joins and start < len(order):
                vs.extend(order[start:])
                us.extend(itertools.repeat(v, len(order) - start))
            order.append(v)
        else:
            if not stack:
                if sorted(order) != list(range(1, n + 1)):
                    raise ValueError("cotree leaves must be exactly 1..n")
                us.reverse()
                vs.reverse()
                return PlainGraph(n, (us, vs))
            if opened:
                slices.pop()
            joins, children, start, opened = stack.pop()


def twin_sequence(root: Cotree, n: int) -> ContractionSequence:
    """Width-0 sequence contracting a cotree bottom-up.

    Once a node's children are each reduced to a single vertex, those
    vertices are mutual twins and fold together without creating a red
    edge.  Children fold in left to right, each as soon as it is reduced;
    the walk keeps its own stack, so a cotree of any depth is fine, and
    checks the leaves it meets rather than walking the tree twice.
    """
    ends = []
    made = n  # the id the last fold made
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
                if rep > other:
                    rep, other = other, rep
                ends.append(rep)
                ends.append(other)
                made += 1
                rep = made
        else:
            if not stack:
                break
            other = rep
            children, rep = stack.pop()
            if rep is None:
                rep = other
            else:
                if rep > other:
                    rep, other = other, rep
                ends.append(rep)
                ends.append(other)
                made += 1
                rep = made
    if sorted(leaves) != list(range(1, n + 1)):
        raise ValueError("cotree leaves must be exactly 1..n")
    return ContractionSequence(n, tuple(ends))


def _random_cotree(ids, rng, join_prob):
    if len(ids) == 1:
        return Cotree("leaf", ids[0])
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
    _check_vertex_count(n)
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
    """K_n with its one-join cotree, the graph built from the cotree."""
    _check_vertex_count(n)
    root = Cotree("join", children=[Cotree("leaf", v) for v in range(1, n + 1)])
    return cotree_graph(root, n), root


def star(leaves: int):
    """K_{1,leaves}: center 1 joined to leaves 2..leaves+1, with its
    cotree, the graph built from the cotree."""
    if leaves < 1:
        raise ValueError("need at least one leaf")
    n = leaves + 1
    check_max_n(n)
    root = Cotree("join", children=(
        Cotree("leaf", 1),
        Cotree("union", children=[Cotree("leaf", v) for v in range(2, n + 1)]),
    ))
    return cotree_graph(root, n), root


# path, cycle, grid and gnp append each edge straight into canonical edge
# arrays, as cotree_graph does, so PlainGraph keeps them after its check
# loop and no pair is ever built.


def path(n: int) -> PlainGraph:
    _check_vertex_count(n)
    code = id_typecode(n)
    return PlainGraph(n, (array(code, range(1, n)), array(code, range(2, n + 1))))


def cycle(n: int) -> PlainGraph:
    """The path 1..n closed by the edge {1, n}, which sorts second."""
    if n < 3:
        raise ValueError("cycles need n >= 3")
    check_max_n(n)
    code = id_typecode(n)
    us, vs = array(code, (1, 1)), array(code, (2, n))
    us.extend(range(2, n))
    vs.extend(range(3, n + 1))
    return PlainGraph(n, (us, vs))


def grid(rows: int, cols: int) -> PlainGraph:
    """rows x cols grid, vertices numbered row-major from 1."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    n = rows * cols
    check_max_n(n)
    us, vs = array(id_typecode(n)), array(id_typecode(n))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                us.append(v)
                vs.append(v + 1)
            if r + 1 < rows:
                us.append(v)
                vs.append(v + cols)
    return PlainGraph(n, (us, vs))


def petersen() -> PlainGraph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(v, v + 5) for v in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return PlainGraph(10, outer + spokes + inner)


def gnp(n: int, p: float = 0.5, seed: int = 0) -> PlainGraph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    check_max_n(n)
    rng = random.Random(seed)
    us, vs = array(id_typecode(n)), array(id_typecode(n))
    for u in range(1, n + 1):
        row = [v for v in range(u + 1, n + 1) if rng.random() < p]
        vs.fromlist(row)
        us.fromlist([u] * len(row))
    return PlainGraph(n, (us, vs))


def chain_sequence(n: int) -> ContractionSequence:
    """Left-to-right fold: contract (1,2), then the product with 3, and so
    on.  Width 1 on paths and 2 on cycles; handy for long sparse chains
    where greedy search would be wasteful."""
    if n < 1:
        raise ValueError("need n >= 1")
    ends = [1, 2] if n > 1 else []
    for step in range(1, n - 1):
        ends += step + 2, n + step
    return ContractionSequence(n, tuple(ends))


# The one table of graph families, in the order the CLI lists them: each
# name's builder, its required parameters (passed in order), its
# optional ones (passed by name when given) and whether it is built from
# a cotree.  A builder returns a PlainGraph, or (graph, cotree) for the
# families built from a cotree.
FAMILIES = {
    "gnp": (gnp, ("n",), ("p", "seed"), False),
    "cograph": (cograph, ("n",), ("block_size", "seed"), True),
    "complete": (complete, ("n",), (), True),
    "path": (path, ("n",), (), False),
    "cycle": (cycle, ("n",), (), False),
    "grid": (grid, ("rows", "cols"), (), False),
    "star": (star, ("n",), (), True),  # n counts the leaves
    "petersen": (petersen, (), (), False),
}


def generate_graph(family: str, seed: int = 0, **params):
    """Build a FAMILIES graph; used by the CLI and the benchmark.

    Parameters the family does not take are ignored, seed included, and
    a missing required one raises KeyError.  Returns (graph,
    cotree-or-None); families built from a cotree return it so a
    width-0 sequence can be derived.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    build, required, optional, has_cotree = FAMILIES[family]
    params["seed"] = seed
    built = build(*(params[name] for name in required),
                  **{name: params[name] for name in optional if name in params})
    return built if has_cotree else (built, None)


# -- greedy sequence -------------------------------------------------------


def greedy_sequence(graph: PlainGraph):
    """Contract, at every step, the pair giving the smallest maximum red
    degree; ties fall to the smallest resulting total of red edges, then
    to the smallest id pair.  Returns (sequence, witnessed width).

    Graphs above GREEDY_MAX_N vertices raise ValueError before any mask
    is built: each slot's masks take about 2n bits, so 10,000 vertices
    hold under 60 MB, and a sparse run that size already takes hours.

    Candidates are scored a row at a time on bitmask neighborhoods.  A
    slot's neighborhood is closed (it holds the slot's own bit), so for
    every pair a, b the union of the two holds a and b, and the score
    |Na | Nb| - |Ba & Bb| is exactly the product's red degree plus 2: the
    black sets hold neither a nor b in common.  Each step packs a slot's
    closed neighborhood and its black set, shifted past bit n, into one
    int, so that |Ba & Bb| = |Ba| + |Bb| - |Ba | Bb| makes the score one
    OR and one popcount less the two black degrees.  A row whose smallest
    score exceeds the best worst degree by more than 2 is skipped whole,
    as is every pair whose score does; each such pair's product alone
    is worse than the best key.

    A remaining pair's worst degree comes from level[d], the mask of
    live slots of red degree d.  The product of a and b changes only
    the degrees of the other slots: those black to exactly one of a
    and b and red to neither (up) gain 1, those red to both (down) lose
    1, and every other slot keeps its degree.  Levels are scanned from
    the top while they can still raise the worst degree; a level's up
    slots end the scan at d + 1, any other slot but a and b at d, and a
    level of down slots alone gives d - 1 and goes on.  Every skipped
    pair is strictly worse than the best key, so the result is the
    global minimum whatever the order of evaluation; the best key's
    first entry is the step's exact width.

    floor[s], kept across steps, is a lower bound on the smallest score
    in slot s's row (s with every later id).  A step (a, b) changes only
    bits a and b of a surviving mask; they add 0 to 2 to a surviving
    pair's score before it and, after it, 1 when either vertex was
    adjacent to a or b (0 when both are black to both, which added 0
    before) and 0 otherwise, so no surviving score falls by more than 1.
    The product takes the last id and joins every row, so at the next
    step a floor becomes min(floor - 1, score with the product).  Rows
    are visited in increasing floor, a scored row's floor becomes its
    minimum, and the first row whose floor exceeds the best worst degree
    by more than 2 ends the visit, as every later row does too.  Only
    pairs worse than the best key are skipped, so the output is the
    full rescan's.  On gnp(200, 0.1, seed 1), 5,441 of a run's 19,900
    rows are scored; on grid(18, 18) 43,900 of 52,326, and on path(300)
    every row.
    """
    n = graph.n
    if n > GREEDY_MAX_N:
        raise ValueError(
            f"greedy search is limited to {GREEDY_MAX_N} vertices (n = {n})")
    # slot i (0-based) holds a live vertex; masks index slots
    black = [0] * n
    red = [0] * n
    for u, v in graph.edges:
        black[u - 1] |= 1 << (v - 1)
        black[v - 1] |= 1 << (u - 1)
    ids = list(range(1, n + 1))
    live = list(range(n))  # in id order
    red_deg = [0] * n
    # level[d]: the live slots of red degree d < n, and a spare for top + 1
    level = [0] * (n + 1)
    level[0] = (1 << n) - 1
    top = 0
    red_total = 0
    next_id = n + 1
    ends = []
    width = 0
    floor = [0] * n

    while len(live) > 1:
        both = [black[s] | red[s] | 1 << s | black[s] << n for s in live]
        nblack = [black[s].bit_count() for s in live]
        if ends:
            # the last product holds the last id: its row is empty, and
            # every other row gains the pair with it and lost at most 1
            # from each old score
            last, kl = both[-1], nblack[-1]
            for s, o, k in zip(live, both, nblack):
                floor[s] = min(floor[s] - 1, (o | last).bit_count() - k - kl)
            floor[live[-1]] = n
        # sorts after every real key: no red degree reaches n
        best_key = (n,)
        best = None
        for ai in sorted(range(len(live) - 1), key=lambda ai: floor[live[ai]]):
            a = live[ai]
            if floor[a] > best_key[0] + 2:
                break
            oa, ka = both[ai], nblack[ai]
            row = [(oa | o).bit_count() - k
                   for o, k in zip(both[ai + 1:], nblack[ai + 1:])]
            floor[a] = min(row) - ka
            if floor[a] > best_key[0] + 2:
                continue
            ba, ra, da = black[a], red[a], red_deg[a]
            bit_a = 1 << a
            limit = best_key[0] + 2 + ka
            for bi, score in [(bi, score) for bi, score in enumerate(row, ai + 1)
                              if score <= limit]:
                wdeg = score - ka - 2
                if wdeg > best_key[0]:
                    continue
                b = live[bi]
                rb, db = red[b], red_deg[b]
                up = (ba ^ black[b]) & ~(ra | rb)
                down = ra & rb
                worst = wdeg
                d = top
                while d >= worst:
                    lv = level[d]
                    if d == da or d == db:
                        lv &= ~(bit_a | 1 << b)
                    if lv & up:
                        worst = d + 1
                        break
                    if lv & ~down:
                        worst = d
                        break
                    if lv and d - 1 > worst:
                        worst = d - 1
                    d -= 1
                if worst > best_key[0]:
                    continue
                key = (worst, red_total - da - db + ((ra >> b) & 1) + wdeg,
                       ids[a], ids[b])
                if key < best_key:
                    best_key = key
                    best = (a, b)
        a, b = best
        ends += ids[a], ids[b]  # live is in id order, so ids[a] < ids[b]
        width = max(width, best_key[0])
        # fold b into slot a; every red edge at a or b disappears and the
        # product's red edges (rr_mask) take their place
        bit_a, bit_b = 1 << a, 1 << b
        bb_mask = black[a] & black[b]
        union = (black[a] | red[a] | black[b] | red[b]) & ~(bit_a | bit_b)
        rr_mask = union & ~bb_mask
        wdeg = rr_mask.bit_count()
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
            level[red_deg[x]] ^= low
            red_deg[x] = red[x].bit_count()
            level[red_deg[x]] |= low
        level[red_deg[a]] ^= bit_a
        level[red_deg[b]] ^= bit_b
        level[wdeg] |= bit_a
        black[a] = bb_mask
        red[a] = rr_mask
        red_deg[a] = wdeg
        ids[a] = next_id
        next_id += 1
        live.remove(b)
        live.remove(a)
        live.append(a)
        # a step raises every other red degree by at most 1
        top = max(top + 1, wdeg)
        while not level[top]:
            top -= 1
    return ContractionSequence(n, tuple(ends)), width


# -- exact sequence --------------------------------------------------------


def exact_sequence(graph: PlainGraph, max_n: int = EXACT_MAX_N):
    """Minimum-width sequence by exhaustive search over contraction orders.

    Graphs above min(max_n, _EXACT_CEILING) vertices raise ValueError
    before anything is built, which keeps the n-bit group masks small and
    the search's one frame per contraction under the recursion limit.

    The live trigraph is fully determined by the partition of original
    vertices into groups, so states are memoized by the partition (a
    sorted tuple of bitmasks), and whether a pair of groups is red is
    cached per mask pair.
    Search decides d = 0, 1, ... in turn, pruning any contraction whose
    trigraph exceeds d, and returns the first d that succeeds; one does
    below n, as no red degree reaches the number of live vertices.  No
    other strategy runs.  Returns (sequence, twin-width).
    """
    n = graph.n
    cap = min(max_n, _EXACT_CEILING)
    if n > cap:
        hint = "; use the greedy strategy instead" if n <= GREEDY_MAX_N else ""
        raise ValueError(
            f"exact search is limited to {cap} vertices ({n} given){hint}")
    adj = [0] * (n + 1)
    for u, v in graph.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    @functools.cache
    def red(p, q):  # some but not all of the pairs between the groups are edges
        crossing = sum((adj[v] & q).bit_count()
                       for v in range(1, n + 1) if p >> v & 1)
        return 0 < crossing < p.bit_count() * q.bit_count()

    def max_red(parts):  # parts is sorted, so red meets a pair in one order
        deg = [0] * len(parts)
        for i, j in itertools.combinations(range(len(parts)), 2):
            if red(parts[i], parts[j]):
                deg[i] += 1
                deg[j] += 1
        return max(deg)

    def search(parts, limit, failed):  # merges into one group within limit
        if len(parts) == 1:
            return []
        if parts not in failed:
            for i, j in itertools.combinations(range(len(parts)), 2):
                rest = parts[:i] + parts[i + 1:j] + parts[j + 1:]
                nxt = tuple(sorted(rest + (parts[i] | parts[j],)))
                if max_red(nxt) <= limit and (
                        tail := search(nxt, limit, failed)) is not None:
                    return [(parts[i], parts[j])] + tail
            failed.add(parts)
        return None

    start = tuple(1 << v for v in range(1, n + 1))
    width = 0
    while (merges := search(start, width, set())) is None:
        width += 1
    id_of = {1 << v: v for v in range(1, n + 1)}
    ends = []
    for p, q in merges:
        ends += sorted((id_of.pop(p), id_of.pop(q)))
        id_of[p | q] = n + len(ends) // 2
    return ContractionSequence(n, tuple(ends)), width
