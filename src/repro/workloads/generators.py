"""Synthetic workload generators with certified structure.

Everything is seeded and deterministic. The partial-k-tree generator records
the decomposition built during generation, so benchmarks can run with a
*certified* width instead of trusting heuristics.

Every generator takes a ``backend`` knob (defaulting to the process-wide
``instance_backend`` knob of :mod:`repro.config`). The linear-size
generators (``path``, ``cycle``, ``rst_chain``, ``rst_bipartite``) emit
columnar instances *natively*: encoded column batches go straight into the
U-relation arrays, so million-fact instances load without creating a
single :class:`~repro.instances.base.Fact`. Either backend draws the
probabilities from the same ``random.Random`` stream, so a generator
produces the identical (fact, probability) set on both: the object path
calls :func:`_jitter` per fact, and the bulk paths replay that stream in
numpy with :func:`_jitter_list`, which relies on CPython's ``getstate()``
layout and its 53-bit ``random()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.instances.base import fact
from repro.instances.columnar import ColumnarInstance
from repro.instances.tid import TIDInstance
from repro.treewidth import TreeDecomposition
from repro.util import check, stable_rng


@dataclass
class GeneratedGraph:
    """A generated graph TID plus its certified decomposition."""

    tid: TIDInstance
    decomposition: TreeDecomposition
    width: int


def _columnar_of(tid: TIDInstance) -> ColumnarInstance | None:
    """The TID's columnar instance when bulk loads apply, else ``None``."""
    return tid.instance if isinstance(tid.instance, ColumnarInstance) else None


def _int_column(start: int, stop: int):
    """An encoded column holding ``start..stop-1`` (codes = values)."""
    return np.arange(start, stop, dtype=np.int64)


def path_tid(
    n: int, probability: float = 0.5, seed: int = 0, backend: str | None = None
) -> TIDInstance:
    """A path of uncertain edges E(i, i+1) — treewidth 1."""
    rng = stable_rng(seed)
    tid = TIDInstance(backend=backend)
    columnar = _columnar_of(tid)
    if columnar is not None and n > 1:
        probs = _jitter_list(probability, rng, n - 1)
        columnar.intern_int_range(n)
        tid.extend_encoded(
            "E", [_int_column(0, n - 1), _int_column(1, n)], probs
        )
        return tid
    for i in range(n - 1):
        tid.add(fact("E", i, i + 1), _jitter(probability, rng))
    return tid


def cycle_tid(
    n: int, probability: float = 0.5, seed: int = 0, backend: str | None = None
) -> TIDInstance:
    """A cycle of uncertain edges — treewidth 2."""
    rng = stable_rng(seed)
    tid = TIDInstance(backend=backend)
    columnar = _columnar_of(tid)
    if columnar is not None and n > 0:
        probs = _jitter_list(probability, rng, n)
        columnar.intern_int_range(n)
        successor = (np.arange(n, dtype=np.int64) + 1) % n
        tid.extend_encoded("E", [_int_column(0, n), successor], probs)
        return tid
    for i in range(n):
        tid.add(fact("E", i, (i + 1) % n), _jitter(probability, rng))
    return tid


def grid_tid(
    rows: int,
    cols: int,
    probability: float = 0.5,
    seed: int = 0,
    backend: str | None = None,
) -> TIDInstance:
    """A rows×cols grid of uncertain edges — treewidth min(rows, cols)."""
    rng = stable_rng(seed)
    tid = TIDInstance(backend=backend)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                tid.add(fact("E", (r, c), (r, c + 1)), _jitter(probability, rng))
            if r + 1 < rows:
                tid.add(fact("E", (r, c), (r + 1, c)), _jitter(probability, rng))
    return tid


def partial_ktree_tid(
    n: int,
    k: int,
    edge_keep: float = 0.7,
    probability: float = 0.5,
    seed: int = 0,
    backend: str | None = None,
) -> GeneratedGraph:
    """A random partial k-tree with a certified width-k decomposition.

    Grows a k-tree (start from a (k+1)-clique; repeatedly attach a new vertex
    to a random existing k-clique), recording one bag per vertex; then keeps
    each edge with probability ``edge_keep`` (edge-subgraphs of k-trees are
    exactly the partial k-trees). The recorded decomposition stays valid.
    """
    import networkx as nx

    check(n >= k + 1, "need at least k+1 vertices")
    rng = stable_rng(seed)
    graph = nx.complete_graph(k + 1)
    cliques = [tuple(range(k + 1))]
    bags: dict[int, frozenset] = {0: frozenset(range(k + 1))}
    edges: list[tuple[int, int]] = []
    bag_of_clique = {cliques[0]: 0}
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        members = rng.sample(base, k) if len(base) > k else list(base)
        for u in members:
            graph.add_edge(v, u)
        new_bag = frozenset(list(members) + [v])
        bag_id = len(bags)
        bags[bag_id] = new_bag
        edges.append((bag_id, bag_of_clique[base]))
        for subset_index in range(len(members) + 1):
            candidate = tuple(sorted(members[:subset_index] + members[subset_index + 1 :] + [v]))
            if len(candidate) == k and candidate not in bag_of_clique:
                cliques.append(candidate)
                bag_of_clique[candidate] = bag_id
        full = tuple(sorted(list(members) + [v]))
        if len(full) == k and full not in bag_of_clique:
            cliques.append(full)
            bag_of_clique[full] = bag_id
    decomposition = TreeDecomposition(bags, edges)
    tid = TIDInstance(backend=backend)
    for a, b in sorted(graph.edges, key=str):
        if rng.random() < edge_keep:
            key = (a, b) if str(a) <= str(b) else (b, a)
            tid.add(fact("E", *key), _jitter(probability, rng))
    return GeneratedGraph(tid=tid, decomposition=decomposition, width=k)


def rst_chain_tid(
    n: int, probability: float = 0.5, seed: int = 0, backend: str | None = None
) -> TIDInstance:
    """R(i), S(i, i+1), T(i) facts along a path — the Q_RST workload.

    The scaling workload of the columnar-pipeline benchmark (E18): on the
    columnar backend it bulk-loads the three relations as encoded ranges,
    so ``n`` in the millions stays object-free. The RNG draw order matches
    the object path fact for fact (R, T, then S per position).
    """
    rng = stable_rng(seed)
    tid = TIDInstance(backend=backend)
    columnar = _columnar_of(tid)
    if columnar is not None and n > 0:
        # The object path draws R, T, S jitters interleaved per position;
        # one flat draw of the same length deals them back out by stride.
        flat = _jitter_list(probability, rng, 3 * n - 1)
        probs_r, probs_t, probs_s = flat[0::3], flat[1::3], flat[2::3]
        columnar.intern_int_range(n)
        tid.extend_encoded("R", [_int_column(0, n)], probs_r)
        tid.extend_encoded("T", [_int_column(0, n)], probs_t)
        if n > 1:
            tid.extend_encoded(
                "S", [_int_column(0, n - 1), _int_column(1, n)], probs_s
            )
        return tid
    for i in range(n):
        tid.add(fact("R", i), _jitter(probability, rng))
        tid.add(fact("T", i), _jitter(probability, rng))
        if i + 1 < n:
            tid.add(fact("S", i, i + 1), _jitter(probability, rng))
    return tid


def rst_bipartite_tid(
    left: int,
    right: int,
    probability: float = 0.5,
    seed: int = 0,
    density: float = 1.0,
    backend: str | None = None,
) -> TIDInstance:
    """R over left nodes, T over right nodes, S a (dense) bipartite relation.

    With ``density=1`` this is the complete bipartite workload on which the
    query ``∃xy R(x)S(x,y)T(y)`` exhibits its #P-hard behaviour (high
    treewidth); lower densities interpolate toward tree-like instances.
    """
    rng = stable_rng(seed)
    tid = TIDInstance(backend=backend)
    columnar = _columnar_of(tid)
    if columnar is not None:
        left_codes = columnar.intern_values(f"l{i}" for i in range(left))
        right_codes = columnar.intern_values(f"r{j}" for j in range(right))
        probs_r = _jitter_list(probability, rng, left)
        probs_t = _jitter_list(probability, rng, right)
        # Keep the object path's RNG sequence: one density draw per pair,
        # one jitter per kept pair.
        s_left, s_right, probs_s = [], [], []
        random = rng.random
        for i in range(left):
            for j in range(right):
                if random() < density:
                    s_left.append(int(left_codes[i]))
                    s_right.append(int(right_codes[j]))
                    jit = probability + (-0.2 + 0.4 * random())
                    probs_s.append(
                        round(
                            (0.95 if jit > 0.95 else 0.05 if jit < 0.05 else jit)
                            * 1000
                        )
                        / 1000
                    )
        if left:
            tid.extend_encoded("R", [left_codes], probs_r)
        if right:
            tid.extend_encoded("T", [right_codes], probs_t)
        if probs_s:
            tid.extend_encoded("S", [s_left, s_right], probs_s)
        return tid
    for i in range(left):
        tid.add(fact("R", f"l{i}"), _jitter(probability, rng))
    for j in range(right):
        tid.add(fact("T", f"r{j}"), _jitter(probability, rng))
    for i in range(left):
        for j in range(right):
            if rng.random() < density:
                tid.add(fact("S", f"l{i}", f"r{j}"), _jitter(probability, rng))
    return tid


def core_and_tentacles_tid(
    core_size: int,
    tentacle_count: int,
    tentacle_length: int,
    probability: float = 0.5,
    seed: int = 0,
    backend: str | None = None,
) -> TIDInstance:
    """A dense clique core with long path tentacles hanging off it.

    The partial-decomposition workload (E12): the core has treewidth
    ``core_size − 1`` while the tentacles are width-1 paths.
    """
    rng = stable_rng(seed)
    tid = TIDInstance(backend=backend)
    for i in range(core_size):
        for j in range(i + 1, core_size):
            tid.add(fact("E", f"core{i}", f"core{j}"), _jitter(probability, rng))
    for t in range(tentacle_count):
        anchor = f"core{t % core_size}"
        previous = anchor
        for step in range(tentacle_length):
            node = f"t{t}_{step}"
            tid.add(fact("E", previous, node), _jitter(probability, rng))
            previous = node
    return tid


def _jitter(probability: float, rng) -> float:
    """Perturb a base probability slightly, clamped to [0.05, 0.95].

    Quantized to ~3 decimals via integer rounding — the single-argument
    ``round`` is several times cheaper than ``round(x, 3)``'s decimal
    string path, and these are synthetic probabilities where the exact
    quantization boundary is immaterial (the two instance backends matter
    only relative to each other, and both draw through this formula).
    """
    jittered = probability + rng.uniform(-0.2, 0.2)
    return round(min(0.95, max(0.05, jittered)) * 1000) / 1000


def _jitter_list(probability: float, rng, count: int):
    """``count`` draws of :func:`_jitter` as one float64 array (bulk paths).

    Replays ``rng``'s Mersenne Twister in numpy instead of calling
    ``rng.random()`` per draw. It relies on two facts of CPython's
    ``random.Random``: ``getstate()`` holds the 624 MT19937 key words and
    the read position, which seed ``np.random.MT19937`` exactly; and
    ``random()`` builds its 53-bit double from two 32-bit outputs ``a, b``
    as ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``. Every later step is
    exact or one correctly rounded float64 operation, as in :func:`_jitter`
    (``uniform(a, b)`` is ``a + (b - a) * random()``, and ``np.rint``
    rounds half to even like ``round``), so the floats are bitwise the
    loop's. The advanced state goes back into ``rng``, ``gauss_next``
    included, so later draws continue the same stream.
    """
    version, internal, gauss_next = rng.getstate()
    bits = np.random.MT19937(0)
    bits.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.asarray(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }
    raw = bits.random_raw(2 * count)
    high, low = raw[0::2], raw[1::2]
    high >>= 5
    low >>= 6
    draws = high * 67108864.0
    draws += low
    draws *= 1.0 / 9007199254740992.0
    draws *= 0.4
    draws += -0.2
    draws += probability
    np.clip(draws, 0.05, 0.95, out=draws)
    draws *= 1000.0
    np.rint(draws, out=draws)
    draws /= 1000.0
    state = bits.state["state"]
    rng.setstate((version, (*state["key"].tolist(), int(state["pos"])), gauss_next))
    return draws
