"""Seeded input generators for the end-to-end benchmark.

The program under test only ever sees the CSV files written here (one
`<Relation>.csv` per atom, header `attrs...,cnt`, one line per distinct
tuple). The generators follow the shape of the paper's data sets:

* TPC-H (Section 7.1 schema): Region 5, Nation 25, and Supplier 10k,
  Customer 150k, Part 200k, Partsupp 4 x Part, Orders 1.5M and
  Lineitem 4 x Orders rows at scale 1. Foreign keys are uniform, four
  suppliers per part, 1-7 lineitems per order, each on an existing
  partsupp pair.
* Facebook ego network (SNAP user 348): 225 nodes, 6400 undirected
  edges with degree skew, 567 circles of skewed size. Circle edge sets
  are ranked by size and merged into four bag edge tables by rank mod 4,
  and a triangle table materialises R4(x,y) R4(y,z) R4(z,x).

Every random draw comes from `random.Random` streams seeded with a
string derived from a seed, so the same seed gives the same files on any
Python 3. The TPC-H data comes from the benchmark seed. The ego network
stands in for the one real SNAP graph the paper uses, so it is the same
in every run: it comes from the fixed FACEBOOK_SEED (42, the default
seed of lib/workload's generator). Its 4-cycle and triangle counts vary
about twofold between seeds, which would swamp the run-to-run spread.
"""

import collections
import os
import random


def _stream(seed, name):
    return random.Random(f"perfbench:{seed}:{name}")


def _scaled(scale, base):
    return max(1, int(base * scale + 0.5))


def tpch_tables(seed, scale):
    """Relation name -> (attrs, Counter of tuples)."""
    suppliers = _scaled(scale, 10_000)
    customers = _scaled(scale, 150_000)
    parts = _scaled(scale, 200_000)
    orders_n = _scaled(scale, 1_500_000)
    lineitems_n = 4 * orders_n
    s_sup, s_cus, s_ps, s_ord, s_li = (
        _stream(seed, n) for n in ("supplier", "customer", "partsupp", "orders", "lineitem")
    )
    partsupp_pairs = [(s_ps.randrange(suppliers), i // 4) for i in range(4 * parts)]
    lineitem = []
    for ok in range(orders_n):
        for _ in range(1 + s_li.randrange(7)):
            if len(lineitem) < lineitems_n:
                lineitem.append((ok,) + partsupp_pairs[s_li.randrange(len(partsupp_pairs))])
    while len(lineitem) < lineitems_n:
        lineitem.append((s_li.randrange(orders_n),) + partsupp_pairs[s_li.randrange(len(partsupp_pairs))])
    c = collections.Counter
    return {
        "Region": (["RK"], c((i,) for i in range(5))),
        "Nation": (["RK", "NK"], c((i % 5, i) for i in range(25))),
        "Supplier": (["NK", "SK"], c((s_sup.randrange(25), i) for i in range(suppliers))),
        "Customer": (["NK", "CK"], c((s_cus.randrange(25), i) for i in range(customers))),
        "Part": (["PK"], c((i,) for i in range(parts))),
        "Partsupp": (["SK", "PK"], c(partsupp_pairs)),
        "Orders": (["CK", "OK"], c((s_ord.randrange(customers), i) for i in range(orders_n))),
        "Lineitem": (["OK", "SK", "PK"], c(lineitem)),
    }


def _skewed_node(rng, n):
    u = rng.random()
    return min(n - 1, int(n * u * u))


def facebook_tables(seed, nodes=225, edges=6400, circles=567):
    """(four edge bags as Counters, triangle Counter)."""
    graph_rng = _stream(seed, "graph")
    circle_rng = _stream(seed, "circles")
    edge_set = set()
    attempts = 0
    while len(edge_set) < edges and attempts < 40 * edges:
        attempts += 1
        a, b = _skewed_node(graph_rng, nodes), _skewed_node(graph_rng, nodes)
        if a != b:
            edge_set.add((min(a, b), max(a, b)))
    circle_edges = []
    for _ in range(circles):
        u = circle_rng.random()
        size = 2 + int(20.0 * u * u * u)
        members = set()
        tries = 0
        while len(members) < size and tries < 20 * size:
            tries += 1
            members.add(circle_rng.randrange(nodes))
        members = sorted(members)
        circle_edges.append(
            [e for a in members for b in members if a < b and (a, b) in edge_set for e in ((a, b), (b, a))]
        )
    ranked = sorted(circle_edges, key=len, reverse=True)  # stable, as the paper ranks
    tables = [collections.Counter() for _ in range(4)]
    for rank, circle in enumerate(ranked):
        tables[rank % 4].update(circle)
    r4 = tables[3]
    adjacency = collections.defaultdict(list)
    for (x, y), cnt in r4.items():
        adjacency[x].append((y, cnt))
    triangles = collections.Counter()
    for (x, y), c1 in r4.items():
        for z, c2 in adjacency[y]:
            c3 = r4.get((z, x))
            if c3:
                triangles[(x, y, z)] = c1 * c2 * c3
    return tables, triangles


FACEBOOK_SEED = 42

# Atom schemas of the queries each data set serves (lib/workload's
# Queries module binds the same tables to these attribute names).
FACEBOOK_QUERIES = {
    "q4": [("R1", ["A", "B"], 0), ("R2", ["B", "C"], 1), ("R3", ["C", "A"], 2)],
    "qw": [("R1", ["A", "B"], 0), ("R2", ["B", "C"], 1), ("R3", ["C", "D"], 2), ("R4", ["D", "E"], 3)],
    "qo": [("R1", ["A", "B"], 0), ("R2", ["B", "C"], 1), ("R3", ["C", "D"], 2), ("R4", ["D", "A"], 3)],
    "qstar": [("Rt", ["A", "B", "C"], None), ("R1", ["A", "B"], 0), ("R2", ["B", "C"], 1), ("R3", ["C", "A"], 2)],
}

# Attributes that some TPC-H query (q1-q3) joins on.
TPCH_JOIN_ATTRS = {"RK", "NK", "CK", "OK", "SK", "PK"}


def write_csv(path, attrs, bag):
    with open(path, "w") as f:
        f.write(",".join(attrs + ["cnt"]) + "\n")
        for tup in sorted(bag):
            f.write(",".join(map(str, tup)) + f",{bag[tup]}\n")


def max_key_group(attrs, bag, join_attrs):
    """Largest bag count sharing one value of one join attribute."""
    best = 0
    for i, a in enumerate(attrs):
        if a in join_attrs:
            groups = collections.Counter()
            for tup, cnt in bag.items():
                groups[tup[i]] += cnt
            best = max(best, max(groups.values(), default=0))
    return best


def write_dataset(directory, seed, tpch_scale, facebook):
    """Writes `tpch/` (and, if asked, `fb_<query>/`) under `directory`.

    Returns the input properties: rows per relation (bag cardinality,
    keyed `<dir>/<Relation>`) and the largest join-key group."""
    rows, groups = {}, []

    def emit(sub, name, attrs, bag, join_attrs):
        os.makedirs(os.path.join(directory, sub), exist_ok=True)
        write_csv(os.path.join(directory, sub, name + ".csv"), attrs, bag)
        rows[f"{sub}/{name}"] = sum(bag.values())
        groups.append(max_key_group(attrs, bag, join_attrs))

    for name, (attrs, bag) in tpch_tables(seed, tpch_scale).items():
        emit("tpch", name, attrs, bag, TPCH_JOIN_ATTRS)
    if facebook:
        edges, triangles = facebook_tables(FACEBOOK_SEED)
        for query, atoms in FACEBOOK_QUERIES.items():
            counts = collections.Counter(a for _, attrs, _ in atoms for a in attrs)
            shared = {a for a, n in counts.items() if n > 1}
            for name, attrs, table in atoms:
                emit(f"fb_{query}", name, attrs, triangles if table is None else edges[table], shared)
    return {"rows": rows, "max_key_group": max(groups)}
