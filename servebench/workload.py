"""Seeded inputs for the serving benchmark.

Everything a run sends is derived here from the ``--seed`` argument alone:
the graphs (as graph6 strings) and the open-loop arrival schedules. The
generators mirror the repository's families (``make_lattice``,
``make_random_tree`` with a router degree cap of 3, ``make_waxman`` with
alpha = beta = 0.4 and components joined, ``make_sparse_random``) with
shuffled vertex labels, but are written out here so that the benchmark's
inputs never move when the program under test changes.
"""

import math
import random

# Section V.A sizes: lattice / tree / Waxman at 12..36 vertices.
PAPER_FAMILIES = ("lattice", "tree", "waxman")
PAPER_SIZES = (12, 16, 20, 24, 28, 32, 36)


def graph6(n, edges):
    """Encode an undirected simple graph on vertices 0..n-1 as graph6."""
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~"] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    adj = set()
    for u, v in edges:
        adj.add((min(u, v), max(u, v)))
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        chunk = 0
        for b in bits[k:k + 6]:
            chunk = (chunk << 1) | b
        out.append(chr(63 + chunk))
    return "".join(out)


def lattice(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, edges


def square_lattice(n):
    """A grid of n vertices, ceil(sqrt(n)) wide, filled row by row (the last
    row may be short). For n = 12, 16, 20 it is the 3x4, 4x4 and 4x5
    lattice; other sizes keep the same shape instead of degenerating into
    a path when n is prime."""
    cols = math.isqrt(n - 1) + 1
    edges = []
    for v in range(n):
        if (v + 1) % cols and v + 1 < n:
            edges.append((v, v + 1))
        if v + cols < n:
            edges.append((v, v + cols))
    return n, edges


def random_tree(n, rng, max_degree=3):
    degree = [0] * n
    edges = []
    for v in range(1, n):
        while True:
            parent = rng.randrange(v)
            if degree[parent] < max_degree:
                break
        degree[parent] += 1
        degree[v] += 1
        edges.append((parent, v))
    return n, edges


def waxman(n, rng, alpha=0.4, beta=0.4):
    pts = [(rng.random(), rng.random()) for _ in range(n)]

    def dist(a, b):
        return math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1])

    max_dist = max((dist(a, b) for a in range(n) for b in range(a + 1, n)),
                   default=1.0) or 1.0
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < beta * math.exp(-dist(a, b) / (alpha * max_dist))]
    # Join components through their geometrically closest pair.
    while True:
        comp = _components(n, edges)
        if len(comp) <= 1:
            return n, edges
        best = min((dist(u, v), u, v) for u in comp[0]
                   for c in comp[1:] for v in c)
        edges.append((best[1], best[2]))


def sparse_random(n, rng, avg_degree=4.0):
    """Random spanning tree topped up with uniform pairs to avg_degree."""
    adj = set()
    for v in range(1, n):
        adj.add((rng.randrange(v), v))
    target = max(len(adj), int(avg_degree * n / 2))
    while len(adj) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj.add((min(u, v), max(u, v)))
    return n, sorted(adj)


def _components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def shuffled(graph, rng):
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges]


def paper_graph(family, n, shape_rng, label_rng):
    if family == "lattice":
        g = square_lattice(n)
    elif family == "tree":
        g = random_tree(n, shape_rng)
    else:
        g = waxman(n, shape_rng)
    return graph6(*shuffled(g, label_rng))


def paper_set(seed, count, tag, sizes=PAPER_SIZES, shapes=None, blocks=False):
    """`count` distinct Section V.A graphs: families and sizes cycle in a
    fixed order (so every seed has the same size mix), labels and order
    come from the seed and `tag`. The unlabelled shapes come from them too,
    or, when `shapes` is given, from `shapes` and `tag` alone, so that every
    seed relabels one fixed set of shapes. Returns [(name, graph6)]
    shuffled: as a whole, or with `blocks` within each run of one graph per
    family and size, so that every such block is the full mix."""
    rng = random.Random(f"{tag}:{seed}")
    shape_rng = rng if shapes is None else random.Random(f"{tag}:shapes:{shapes}")
    out, seen = [], set()
    i = 0
    while len(out) < count:
        family = PAPER_FAMILIES[i % len(PAPER_FAMILIES)]
        n = sizes[(i // len(PAPER_FAMILIES)) % len(sizes)]
        i += 1
        g6 = paper_graph(family, n, shape_rng, rng)
        if g6 in seen:
            continue
        seen.add(g6)
        out.append((f"{family}{n}", g6))
    step = len(PAPER_FAMILIES) * len(sizes) if blocks else len(out)
    order = []
    for start in range(0, len(out), step):
        block = list(range(start, min(start + step, len(out))))
        rng.shuffle(block)
        order += block
    return [out[k] for k in order]


# cold_scale: ~1000-vertex sparse graphs, one of each family per round.
SCALE_FAMILIES = ("tree", "sparse", "lattice")


def scale_graph(family, rng):
    if family == "lattice":
        g = lattice(25, 40)
    elif family == "tree":
        g = random_tree(1000, rng)
    else:
        g = sparse_random(1000, rng)
    return graph6(*shuffled(g, rng))


def scale_set(seed, count):
    rng = random.Random(f"scale:{seed}")
    return [(f"{SCALE_FAMILIES[i % 3]}1000",
             scale_graph(SCALE_FAMILIES[i % 3], rng)) for i in range(count)]


def arrival_schedule(seed, rate, seconds, keys):
    """Open-loop Poisson arrivals at `rate` req/s for `seconds`: a list of
    (due offset in seconds, index into the hit set)."""
    rng = random.Random(f"arrivals:{seed}:{rate}")
    t, out = 0.0, []
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        out.append((t, rng.randrange(keys)))
