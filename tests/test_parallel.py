"""Tests for the sharded multi-process batch evaluation subsystem.

Covers the satellite checklist for :mod:`repro.circuits.parallel`: shared-
memory lifecycle (no leaked segments after crashes, errors or garbage
collection), pool reuse across calls, and bit-identical results between the
serial path and 1/2/4 workers for fixed seeds. Worker counts above the
machine's core count are still exercised — determinism must not depend on
parallel hardware, only wall-clock does.
"""

import functools
import gc
import math
import multiprocessing
import operator
import os
import signal
import time

import numpy as np
import pytest

from repro import config
from repro.circuits import Circuit, compile_circuit
from repro.circuits import compiled as compiled_module
from repro.circuits import parallel
from repro.util import ReproError, stable_rng

pytestmark = pytest.mark.skipif(
    not parallel.parallel_available(), reason="shared memory unavailable"
)


def shm_segments() -> list[str]:
    """Our shared-memory segments as the OS sees them (Linux/CI)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX-shm host
        return []
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith("repro-"))


def pool_pids() -> set[int]:
    """PIDs of this process's live worker processes."""
    return {process.pid for process in multiprocessing.active_children()}


def exit_shard(*_args):
    """A shard whose worker dies mid-call."""
    os._exit(17)


_MC_SHARD = parallel._mc_shard


def exit_once_shard(flag, *args):
    """A Monte-Carlo shard whose worker dies the first time any shard runs:
    the first to create the file ``flag`` exits, every later run counts."""
    try:
        os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _MC_SHARD(*args)
    os._exit(17)


@pytest.fixture(autouse=True)
def torn_down_pool():
    """Each test ends with the pool stopped and no segment left behind."""
    yield
    parallel.shutdown()
    assert parallel.active_segments() == ()
    assert shm_segments() == []


def random_circuit(seed: int, n_vars: int = 6, steps: int = 16) -> Circuit:
    rng = stable_rng(seed)
    c = Circuit()
    gates = [c.variable(f"v{i}") for i in range(n_vars)] + [c.true(), c.false()]
    for _ in range(rng.randint(4, steps)):
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            gates.append(c.negation(rng.choice(gates)))
        else:
            picked = rng.sample(gates, rng.randint(2, min(4, len(gates))))
            gates.append(c.and_gate(picked) if op == "and" else c.or_gate(picked))
    c.set_output(gates[-1])
    return c


def world_matrix(compiled, rows: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.random((rows, len(compiled.variables()))) < 0.5


class TestKnob:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
        assert config.get("parallel_workers") == 3
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "auto")
        assert config.get("parallel_workers") == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "junk")
        assert config.get("parallel_workers") == 0
        monkeypatch.delenv("REPRO_PARALLEL_WORKERS")
        assert config.get("parallel_workers") == 0

    def test_set_and_scope(self):
        before = config.get("parallel_workers")
        with config.overrides(parallel_workers=5):
            assert config.get("parallel_workers") == 5
            with config.overrides(parallel_workers=None):
                assert config.get("parallel_workers") == 0
        assert config.get("parallel_workers") == before

    def test_rejects_negative(self):
        with pytest.raises(ReproError, match="parallel_workers"):
            config.configure(parallel_workers=-1)

    def test_should_shard_thresholds(self):
        with config.overrides(parallel_workers=2):
            assert parallel.should_shard(parallel.PARALLEL_MIN_ROWS)
            assert not parallel.should_shard(parallel.PARALLEL_MIN_ROWS - 1)
        with config.overrides(parallel_workers=1):
            assert not parallel.should_shard(10**6)
            # A per-call worker count overrides the knob, both ways.
            assert parallel._effective_workers(4) == 4
            assert parallel.should_shard(10**6, workers=4)
        with config.overrides(parallel_workers=4):
            assert not parallel.should_shard(10**6, workers=1)

    @pytest.mark.parametrize("workers", (2.7, True, "2", -1))
    def test_per_call_workers_checked_like_the_knob(self, workers):
        """A per-call count the ``parallel_workers`` knob would refuse is
        refused, naming ``workers``, not rounded or coerced."""
        with pytest.raises(ReproError, match="parallel_workers"):
            config.configure(parallel_workers=workers)
        with pytest.raises(ReproError, match="workers"):
            parallel.should_shard(10**6, workers=workers)
        compiled = compile_circuit(random_circuit(7))
        marginals = [0.5] * len(compiled.variables())
        with pytest.raises(ReproError, match="workers"):
            parallel.monte_carlo_hits(compiled, marginals, 64, workers=workers)

    @pytest.mark.parametrize("workers", (0, 1, 3))
    def test_per_call_workers_taken_as_the_knob_takes_them(self, workers):
        """A count the knob accepts is accepted per call and used as
        given, the same count the knob yields when the call passes
        ``None``."""
        assert parallel._effective_workers(workers) == workers
        with config.overrides(parallel_workers=workers):
            assert parallel._effective_workers(None) == workers

    def test_unavailable_without_shared_memory(self, monkeypatch):
        monkeypatch.setattr(parallel, "_shm", None)
        assert not parallel.parallel_available()
        assert parallel._effective_workers(4) == 0
        assert not parallel.should_shard(10**6, workers=4)


class TestSharedBuffers:
    def test_roundtrip_and_attach(self):
        arrays = {
            "a": np.arange(7, dtype=np.int32),
            "b": np.linspace(0.0, 1.0, 5),
            "out": ((3,), np.bool_),
        }
        buffers = parallel.SharedBuffers(arrays, meta={"tag": 42})
        try:
            assert buffers.shm.name in parallel.active_segments()
            shm, meta, views = parallel.SharedBuffers.attach(buffers.manifest)
            assert meta["tag"] == 42
            assert np.array_equal(views["a"], np.arange(7))
            assert np.allclose(views["b"], np.linspace(0.0, 1.0, 5))
            views["out"][:] = True  # attached view writes land in the segment
            views = None
            shm.close()
            assert buffers.arrays["out"].all()
        finally:
            buffers.close()
        assert buffers.shm.name not in parallel.active_segments()
        buffers.close()  # idempotent

    def test_plan_segment_unlinked_on_circuit_gc(self):
        compiled = compile_circuit(random_circuit(3))
        name = parallel._plan_handle(compiled).shm.name
        assert parallel._plan_handle(compiled).shm.name == name  # cached
        assert name in parallel.active_segments()
        del compiled
        gc.collect()
        assert name not in parallel.active_segments()
        assert name not in shm_segments()

    def test_plan_segment_carries_the_level_schedule(self, monkeypatch):
        """The segment holds the lowering's level schedule next to the CSR
        arrays, so a worker builds its plan without a level pass, and the
        plan computes what the parent's own plan computes."""
        compiled = compile_circuit(random_circuit(5))
        handle = parallel._plan_handle(compiled)
        assert handle.arrays["levels"].tolist() == compiled.levels_list()

        def no_level_pass(*_args):
            raise AssertionError("the worker recomputed the level schedule")

        monkeypatch.setattr(compiled_module, "gate_levels", no_level_pass)
        monkeypatch.setattr(compiled_module, "levels_consistent", no_level_pass)
        plan = parallel._worker_plan(handle.manifest, {})
        local = compiled.batch_plan()
        assert plan.row_of.tolist() == local.row_of.tolist()
        n = len(compiled.variables())
        rng = np.random.default_rng(5)
        marginals = rng.random((9, n))
        assert (
            plan.run(marginals, as_float=True).view(np.uint64).tolist()
            == local.run(marginals, as_float=True).view(np.uint64).tolist()
        )
        worlds = rng.random((70, n)) < 0.5
        assert (
            plan.run(worlds, as_float=False).tolist()
            == local.run(worlds, as_float=False).tolist()
        )


class TestShardedMatrixPasses:
    # Bit-identical agreement of the sharded passes with the in-process
    # kernels (at 0/1/2/4 workers, over the whole scenario corpus) lives in
    # the cross-engine conformance matrix (tests/test_conformance.py);
    # this class keeps the pool-specific routing and failure behaviour.

    def test_empty_batch(self):
        compiled = compile_circuit(random_circuit(13))
        matrix = np.empty((0, len(compiled.variables())), dtype=bool)
        assert parallel.evaluate_batch_sharded(compiled, matrix, workers=2).size == 0

    def test_wrong_width_rejected(self):
        compiled = compile_circuit(random_circuit(14))
        with pytest.raises(ReproError, match="world matrix"):
            parallel.evaluate_batch_sharded(
                compiled, np.zeros((4, len(compiled.variables()) + 1), dtype=bool),
                workers=2,
            )

    def test_evaluate_batch_routes_through_pool(self, monkeypatch):
        from repro.circuits import distributed

        compiled = compile_circuit(random_circuit(15))
        matrix = world_matrix(compiled, parallel.PARALLEL_MIN_ROWS + 17)
        # Pin the distributed knob off: it outranks the pool, and this test
        # asserts specifically that the *pool* tier handled the batch.
        # Elastic members extend the empty default (the CI distributed job
        # keeps one REGISTERed worker around), so neutralize those too.
        monkeypatch.setattr(distributed, "registered_hosts", lambda: ())
        with config.overrides(distributed_hosts=()):
            serial = compiled.evaluate_batch(matrix)
            with config.overrides(parallel_workers=2):
                assert compiled.evaluate_batch(matrix) == serial
                assert pool_pids()  # really went through the pool
            float_matrix = np.random.default_rng(2).random(matrix.shape)
            serial_probs = compiled.probability_batch(float_matrix)
            with config.overrides(parallel_workers=2):
                assert compiled.probability_batch(float_matrix) == serial_probs


#: Marginals at and beyond the ends of the thresholds ``ceil(p * 2**24)``:
#: 0, 1, 1, 2**23, 2**24 - 1, 2**24, 2**24, 0, 0, 2**24 and 0.
EDGE_MARGINALS = (
    0.0, 2.0**-149, 2.0**-24, 0.5, 1 - 2.0**-24, 1.0,
    1.5, -0.5, float("nan"), float("inf"), float("-inf"),
)

#: Thresholds whose law the drawn bits are checked against.
LAW_THRESHOLDS = (
    1, 1 << 23, 3 << 22, (1 << 24) - 1,
    5_592_405, 12_345_678, 1_677_722, 2_000_001,
)

#: ``monte_carlo_hits`` of :meth:`test_golden_hits_pin_the_stream` at seeds
#: 0, 1 and 2.
GOLDEN_HITS = [455, 533, 476]


def hoeffding(samples: int, delta: float = 1e-9) -> float:
    """Two-sided Hoeffding deviation of a frequency over ``samples`` draws."""
    return math.sqrt(math.log(2 / delta) / (2 * samples))


def replay_tile(bitgen, thresholds) -> list[set]:
    """One tile of the documented lazy stream, replayed world by world:
    per entry of ``thresholds``, the set of its word's worlds that hold.

    Entries with ``t`` at 0 or ``2**24`` start decided; the first
    ``_MC_EAGER`` levels are one ``random_raw`` call, level-major; each
    later level draws one output per entry with an undecided world, in
    entry order. At level ``l`` bit ``i`` of an entry's output says world
    ``i``'s bit of ``U`` differs from bit ``23 - l`` of ``t``: the world is
    then decided, and holds when that bit of ``t`` is 1.
    """
    size = len(thresholds)
    held = [set(range(64)) if t == 2**24 else set() for t in thresholds]
    undecided = [set(range(64)) if 0 < t < 2**24 else set() for t in thresholds]
    eager = bitgen.random_raw(parallel._MC_EAGER * size).tolist()
    for level in range(24):
        if level < parallel._MC_EAGER:
            drawn = range(size)
            outputs = eager[level * size : (level + 1) * size]
        else:
            drawn = [j for j in range(size) if undecided[j]]
            outputs = bitgen.random_raw(len(drawn)).tolist()
        for j, output in zip(drawn, outputs):
            bit = thresholds[j] >> (23 - level) & 1
            for world in sorted(undecided[j]):
                if output >> world & 1:
                    undecided[j].discard(world)
                    if bit:
                        held[j].add(world)
    return held


def replay_shard_hits(
    compiled, probs32, seed, index, count, tile, slot_of_row=None
) -> int:
    """The documented Monte-Carlo stream, replayed world by world.

    A world holds slot ``s`` when a 24-bit uniform ``U`` is below ``t =
    ceil(p * 2**24)`` (clipped to ``[0, 2**24]``, 0 for NaN). Entries are
    ``(word, slot)`` pairs, word-major in slot order, cut into tiles, each
    drawn as :func:`replay_tile` says. Variable ``i`` of ``compiled``
    reads slot ``slot_of_row[i]`` (default: slot ``i``).
    """
    bitgen = np.random.default_rng((seed, index)).bit_generator
    thresholds = []
    for p in probs32.tolist():
        scaled = p * 2**24
        thresholds.append(math.ceil(min(scaled, 2**24)) if scaled > 0 else 0)
    n_vars = len(thresholds)
    entries = [
        (word, slot)
        for word in range(-(-count // 64))
        for slot in range(n_vars)
    ]
    held = {}
    for start in range(0, len(entries), tile):
        part = entries[start : start + tile]
        worlds = replay_tile(bitgen, [thresholds[slot] for _word, slot in part])
        held.update(zip(part, worlds))
    slot_of_row = range(n_vars) if slot_of_row is None else slot_of_row
    return sum(
        compiled.evaluate(
            [world % 64 in held[world // 64, slot] for slot in slot_of_row]
        )
        for world in range(count)
    )


class TestFusedSampling:
    def test_monte_carlo_identical_across_worker_counts(self, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(21))
        marginals = [0.2 + 0.1 * (i % 5) for i in range(len(compiled.variables()))]
        hits = {
            workers: parallel.monte_carlo_hits(
                compiled, marginals, samples=500, seed=9, workers=workers
            )
            for workers in (0, 1, 2, 4)
        }
        assert len(set(hits.values())) == 1
        # and deterministic across repeated calls with a reused pool
        assert hits[2] == parallel.monte_carlo_hits(
            compiled, marginals, samples=500, seed=9, workers=2
        )

    @pytest.mark.parametrize("width", (5, 6, 7))
    def test_shard_hits_equal_a_scalar_replay_of_the_stream(
        self, monkeypatch, width
    ):
        """The shard's hits equal those of a per-world replay of the
        documented lazy stream, for tiles that straddle word and chunk
        boundaries, one word or whole shards per kernel chunk, and
        marginals at and beyond the edges of the thresholds."""
        c = Circuit()
        vs = [c.variable(f"v{i}") for i in range(width)]
        c.set_output(c.or_gate([c.and_gate(vs[: width // 2 + 1]),
                                c.and_gate(vs[width // 2 :])]))
        compiled = compile_circuit(c)
        assert len(compiled.variables()) == width
        plan = compiled.batch_plan()
        marginal_sets = [[0.55 + 0.05 * (i % 7) for i in range(width)]] + [
            [EDGE_MARGINALS[(i + k) % len(EDGE_MARGINALS)] for i in range(width)]
            for k in range(0, len(EDGE_MARGINALS), width)
        ]
        # Tiles that fold 1, 5, 8 and all 9 eager levels: the slot both
        # ANDs read just under 2**-k, the others at 1.0, decided up front.
        # So that slot alone sets the fold, and the output is its bit.
        shared = width // 2
        marginal_sets += [
            [0.99 * 2.0**-k if i == shared else 1.0 for i in range(width)]
            for k in (1, 5, 8, 12)
        ]
        # One 64-world word per kernel chunk, or whole shards per chunk.
        budgets = (8 * plan.size, compiled_module.BATCH_BYTE_BUDGET)
        monkeypatch.setattr(compiled_module, "BATCH_BYTE_BUDGET", budgets[0])
        assert plan.chunk_rows(as_float=False) == 64
        for tile in (11, parallel._MC_TILE):
            monkeypatch.setattr(parallel, "_MC_TILE", tile)
            for marginals in marginal_sets:
                probs32 = np.asarray(marginals, dtype=np.float32)
                for seed in (0, 17):
                    for count in (1, 63, 64, 65, 200, 700):
                        expected = replay_shard_hits(
                            compiled, probs32, seed, 2, count, tile
                        )
                        for budget in budgets:
                            monkeypatch.setattr(
                                compiled_module, "BATCH_BYTE_BUDGET", budget
                            )
                            assert parallel._mc_shard_hits(
                                plan, probs32, seed, 2, count
                            ) == expected

    def test_tile_words_equal_a_scalar_replay_at_every_fold(self):
        """The eager levels above the top bit of every open threshold fold
        into one OR; the tile's words and the stream position after it
        equal the level-by-level replay's, from no fold to all
        ``_MC_EAGER`` levels, beside thresholds decided up front."""
        rng = np.random.default_rng(8)
        for top_bits in (24, 23, 19, 16, 15, 12, 1):
            thresholds = rng.integers(1, 1 << top_bits, 40)
            thresholds[1] = (1 << top_bits) - 1
            thresholds[2::9] = 0
            thresholds[3::9] = 1 << 24
            for seed in (0, 1):
                ours = np.random.default_rng((seed, 3)).bit_generator
                replayed = np.random.default_rng((seed, 3)).bit_generator
                words = parallel._mc_tile(ours, thresholds)
                assert [
                    {world for world in range(64) if word >> world & 1}
                    for word in words.tolist()
                ] == replay_tile(replayed, thresholds.tolist())
                assert ours.state == replayed.state

    def test_a_word_undecided_at_every_level_keeps_its_decided_worlds(self):
        """A world with ``U == t`` stays undecided through every level, so
        its word never leaves the lazy loop; the worlds of that word that
        later levels decide still land in the tile's words. A scripted
        generator makes it happen: nothing differs at the eager levels,
        then every world but world 0 differs at level 9."""

        class Scripted:
            def __init__(self):
                self.draws = 0

            def random_raw(self, size):
                self.draws += 1
                fill = 0 if self.draws == 1 else ~np.uint64(1)
                return np.full(size, fill, dtype=np.uint64)

        thresholds = np.array(
            [1 << 14, (1 << 14) - 1, 3 << 13, 0, 1 << 24, (1 << 23) | 5],
            dtype=np.int64,
        )
        words = parallel._mc_tile(Scripted(), thresholds)
        assert [
            {world for world in range(64) if word >> world & 1}
            for word in words.tolist()
        ] == replay_tile(Scripted(), thresholds.tolist())
        assert words[0] == ~np.uint64(1)  # bit 14 of t set: held but world 0

    def test_permuted_variable_rows_read_their_own_slots(self, monkeypatch):
        """A plan whose variable rows are not in slot order gets each
        slot's drawn words in the row that reads that slot."""
        c = Circuit()
        vs = [c.variable(f"v{i}") for i in range(5)]
        c.set_output(c.or_gate([c.and_gate(vs[:3]),
                                c.and_gate([vs[3], c.negation(vs[4])])]))
        compiled = compile_circuit(c)
        plan = compiled.batch_plan()
        slot_of_row = plan.var_slots[::-1].copy()
        monkeypatch.setattr(plan, "var_slots", slot_of_row)
        monkeypatch.setattr(parallel, "_MC_TILE", 11)
        probs32 = np.asarray([0.9, 0.8, 0.7, 0.2, 0.1], np.float32)
        for count in (65, 200):
            assert parallel._mc_shard_hits(plan, probs32, 4, 1, count) == (
                replay_shard_hits(
                    compiled, probs32, 4, 1, count, 11, slot_of_row.tolist()
                )
            )

    def test_each_drawn_bit_follows_its_threshold(self):
        """Each world holds a variable with probability t / 2**24, worlds
        of one word are independent, and so are variables in one world:
        every frequency lies within its Hoeffding bound at delta = 1e-9."""
        thresholds = np.array(LAW_THRESHOLDS, dtype=np.int64)
        repeats = 4096
        p = thresholds / 2.0**24
        for seed in (3, 4):
            bitgen = np.random.default_rng((seed, 0)).bit_generator
            words = parallel._mc_tile(bitgen, np.tile(thresholds, repeats))
            bits = np.unpackbits(
                words.view(np.uint8), bitorder="little"
            ).reshape(repeats, thresholds.size, 64).astype(bool)
            # Per variable: the frequency of set bits over every world.
            held = bits.mean(axis=(0, 2))
            assert np.all(np.abs(held - p) <= hoeffding(repeats * 64)), held - p
            # Two worlds of one word: bits i and 63 - i.
            both = (bits[:, :, :32] & bits[:, :, :31:-1]).mean(axis=(0, 2))
            assert np.all(np.abs(both - p * p) <= hoeffding(repeats * 32))
            # Two variables in one world: neighbouring slots of one word.
            pairs = (bits[:, :-1] & bits[:, 1:]).mean(axis=(0, 2))
            assert np.all(
                np.abs(pairs - p[:-1] * p[1:]) <= hoeffding(repeats * 64)
            )

    def test_threshold_ends_decide_every_world(self):
        """A threshold of 0 never holds and one of 2**24 always does."""
        bitgen = np.random.default_rng((5, 0)).bit_generator
        words = parallel._mc_tile(
            bitgen, np.array([0, 1 << 24] * 500, dtype=np.int64)
        )
        assert np.all(words[0::2] == 0)
        assert np.all(words[1::2] == ~np.uint64(0))

    def test_golden_hits_pin_the_stream(self):
        """Literal hit counts of one small circuit: any change to the random
        stream (tiles, eager levels, entry order, thresholds) fails here."""
        compiled = compile_circuit(random_circuit(21))
        marginals = [0.2 + 0.1 * (i % 5) for i in range(len(compiled.variables()))]
        hits = [
            parallel.monte_carlo_hits(compiled, marginals, 40_000, seed=seed)
            for seed in (0, 1, 2)
        ]
        assert hits == GOLDEN_HITS

    @pytest.mark.parametrize("width", (5, 7))
    def test_karp_luby_chunked_draws_equal_one_whole_matrix_draw(
        self, monkeypatch, width
    ):
        """The Karp–Luby shard draws its world rows chunk by chunk after
        the witness picks; the hits equal those of one whole draw."""
        membership = np.array(
            [[(i + k) % 3 == 0 for i in range(width)] for k in range(3)],
            dtype=np.int32,
        )
        sizes = membership.sum(axis=1, dtype=np.int32)
        probs = np.array([0.2 + 0.1 * (i % 6) for i in range(width)])
        cumulative = np.cumsum([0.06, 0.1, 0.03])
        total = float(cumulative[-1])

        def whole_draw(seed, count):
            rng = np.random.default_rng((seed, 3))
            chosen = np.searchsorted(cumulative, rng.random(count) * total)
            chosen = np.minimum(chosen, len(cumulative) - 1)
            worlds = rng.random((count, width)) < probs
            worlds |= membership[chosen].astype(bool)
            contained = worlds.astype(np.int32) @ membership.T == sizes
            return int(np.count_nonzero(contained.argmax(axis=1) == chosen))

        # Four trials per chunk: 8 bytes per fact, width facts per row.
        monkeypatch.setattr(compiled_module, "BATCH_BYTE_BUDGET", 4 * 8 * width)
        for seed in (0, 1, 17):
            for count in (1, 3, 7, 50):
                assert parallel._kl_shard_hits(
                    membership, probs, cumulative, total, seed, 3, count
                ) == whole_draw(seed, count)

    def test_karp_luby_identical_across_worker_counts(self, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        membership = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]], dtype=np.int32)
        probs = np.array([0.3, 0.5, 0.2, 0.4])
        weights = [0.06, 0.1, 0.06]
        hits = {
            workers: parallel.karp_luby_hits(
                membership, probs, weights, samples=400, seed=4, workers=workers
            )
            for workers in (0, 2, 4)
        }
        assert len(set(hits.values())) == 1

    def test_baselines_respect_workers_argument_and_knob(self, monkeypatch):
        from repro.baselines import karp_luby_probability, monte_carlo_probability
        from repro.instances import TIDInstance, fact
        from repro.queries import atom, cq, variables

        monkeypatch.setattr(parallel, "MC_SHARD", 128)
        x, y = variables("x", "y")
        query = cq(atom("R", x), atom("S", x, y), atom("T", y))
        tid = TIDInstance(
            {fact("R", 1): 0.6, fact("S", 1, 2): 0.5, fact("T", 2): 0.8,
             fact("R", 3): 0.2, fact("S", 3, 2): 0.7}
        )
        serial = monte_carlo_probability(query, tid, samples=600, seed=1, workers=0)
        assert monte_carlo_probability(query, tid, samples=600, seed=1, workers=2) == serial
        with config.overrides(parallel_workers=2):
            assert monte_carlo_probability(query, tid, samples=600, seed=1) == serial
        kl_serial = karp_luby_probability(query, tid, samples=600, seed=1, workers=0)
        assert karp_luby_probability(query, tid, samples=600, seed=1, workers=2) == kl_serial


def two_pairs():
    """The 4-variable circuit ``OR(v0 AND v1, v2 AND v3)``."""
    c = Circuit()
    vs = [c.variable(f"v{i}") for i in range(4)]
    c.set_output(c.or_gate([c.and_gate(vs[:2]), c.and_gate(vs[2:])]))
    return compile_circuit(c)


KL_MEMBERSHIP = [[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]
KL_PROBS = [0.3, 0.5, 0.2, 0.4]
KL_WEIGHTS = [0.06, 0.1, 0.06]


class TestSamplingInputs:
    """Every sampling entry point rejects malformed input with ReproError."""

    def test_too_few_marginals_rejected(self):
        with pytest.raises(ReproError, match="need 4 marginals"):
            parallel.monte_carlo_hits(two_pairs(), [0.5] * 3, 100, seed=0)

    def test_too_many_marginals_rejected(self):
        with pytest.raises(ReproError, match="need 4 marginals"):
            parallel.monte_carlo_hits(two_pairs(), [0.5] * 5, 100, seed=0)

    def test_marginals_must_be_one_dimensional(self):
        with pytest.raises(ReproError, match="need 4 marginals"):
            parallel.monte_carlo_hits(two_pairs(), [[0.5] * 4], 100, seed=0)

    @pytest.mark.parametrize("seed", (-1, True, 1.5, None, "3"))
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ReproError, match="seed must be"):
            parallel.monte_carlo_hits(two_pairs(), [0.5] * 4, 100, seed=seed)
        with pytest.raises(ReproError, match="seed must be"):
            parallel.karp_luby_hits(
                KL_MEMBERSHIP, KL_PROBS, KL_WEIGHTS, 100, seed=seed
            )

    @pytest.mark.parametrize("samples", (True, 0, -3, 2.0))
    def test_samples_must_be_a_positive_int(self, samples):
        with pytest.raises(ReproError, match="samples must be"):
            parallel.monte_carlo_hits(two_pairs(), [0.5] * 4, samples, seed=0)
        with pytest.raises(ReproError, match="samples must be"):
            parallel.karp_luby_hits(
                KL_MEMBERSHIP, KL_PROBS, KL_WEIGHTS, samples, seed=0
            )

    def test_numpy_ints_are_accepted(self):
        compiled = two_pairs()
        assert parallel.monte_carlo_hits(
            compiled, [0.5] * 4, np.int64(100), seed=np.uint32(3)
        ) == parallel.monte_carlo_hits(compiled, [0.5] * 4, 100, seed=3)

    def test_karp_luby_probabilities_must_match_the_columns(self):
        with pytest.raises(ReproError, match="need 4 probabilities"):
            parallel.karp_luby_hits(
                KL_MEMBERSHIP, KL_PROBS[:3], KL_WEIGHTS, 100, seed=0
            )

    def test_karp_luby_weights_must_match_the_rows(self):
        with pytest.raises(ReproError, match="need 3 weights"):
            parallel.karp_luby_hits(
                KL_MEMBERSHIP, KL_PROBS, KL_WEIGHTS[:2], 100, seed=0
            )


class TestPoolLifecycle:
    def test_pool_reused_across_calls(self, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(31))
        marginals = [0.5] * len(compiled.variables())
        parallel.monte_carlo_hits(compiled, marginals, 300, seed=0, workers=2)
        pids = pool_pids()
        assert len(pids) == 2
        parallel.monte_carlo_hits(compiled, marginals, 300, seed=1, workers=2)
        assert pool_pids() == pids

    def test_pool_rebuilt_after_worker_killed(self, monkeypatch):
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(32))
        marginals = [0.4] * len(compiled.variables())
        before = parallel.monte_carlo_hits(compiled, marginals, 400, seed=2, workers=2)
        pids = pool_pids()
        os.kill(min(pids), signal.SIGKILL)
        # The executor notices the death and stops the other worker too.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and pool_pids() & pids:
            time.sleep(0.05)
        assert not pool_pids() & pids
        # Next call finds the pool broken, rebuilds it, and still agrees.
        after = parallel.monte_carlo_hits(compiled, marginals, 400, seed=2, workers=2)
        assert after == before
        assert len(pool_pids()) == 2

    def test_worker_death_mid_run_raises_and_cleans(self, monkeypatch):
        compiled = compile_circuit(random_circuit(33))
        matrix = world_matrix(compiled, 300)
        monkeypatch.setattr(parallel, "_eval_shard", exit_shard)
        with pytest.raises(ReproError, match="died mid-run"):
            parallel.evaluate_batch_sharded(compiled, matrix, workers=2)
        assert pool_pids() == set()  # the pool was dropped
        # Per-call buffers are scoped in ``finally``: a crash while a shared
        # matrix is in flight must not leak its segment.
        assert [n for n in parallel.active_segments()
                if n.startswith(parallel.BUFFER_PREFIX)] == []
        assert [n for n in shm_segments()
                if n.startswith(parallel.BUFFER_PREFIX)] == []

    def test_worker_death_mid_run_costs_one_rerun(self, monkeypatch, tmp_path):
        """A worker that dies during a call costs a re-run on a fresh pool,
        not the call: every shard is idempotent, so the hits are those of
        the in-process run."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(35))
        marginals = [0.3] * len(compiled.variables())
        expected = parallel.monte_carlo_hits(
            compiled, marginals, 500, seed=3, workers=0
        )
        flag = tmp_path / "died"
        monkeypatch.setattr(
            parallel, "_mc_shard", functools.partial(exit_once_shard, str(flag))
        )
        assert parallel.monte_carlo_hits(
            compiled, marginals, 500, seed=3, workers=2
        ) == expected
        assert flag.exists()  # a worker did die

    def test_worker_killed_just_before_a_call_costs_one_rerun(self, monkeypatch):
        """A worker killed too recently for the executor to have noticed
        breaks the call's first run; the re-run answers bit for bit."""
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(36))
        marginals = [0.4] * len(compiled.variables())
        expected = parallel.monte_carlo_hits(
            compiled, marginals, 400, seed=4, workers=0
        )
        parallel.monte_carlo_hits(compiled, marginals, 400, seed=4, workers=2)
        pids = pool_pids()
        os.kill(min(pids), signal.SIGKILL)
        assert parallel.monte_carlo_hits(
            compiled, marginals, 400, seed=4, workers=2
        ) == expected
        assert len(pool_pids() - pids) == 2  # a fresh pool answered

    def test_worker_error_propagates_without_killing_pool(self):
        with pytest.raises(ReproError, match="worker failed: ZeroDivisionError"):
            parallel._run_tasks(operator.truediv, [(1, 0)], workers=2)
        pids = pool_pids()
        assert len(pids) == 2
        assert parallel._run_tasks(
            operator.truediv, [(1, 2), (3, 4)], workers=2
        ) == [0.5, 0.75]
        assert pool_pids() == pids

    def test_failed_run_does_not_poison_the_next_one(self, monkeypatch):
        # A failing shard makes the run raise while sibling shards are still
        # in flight; their late results must not surface in the next call.
        monkeypatch.setattr(parallel, "MC_SHARD", 64)
        compiled = compile_circuit(random_circuit(34))
        marginals = [0.5] * len(compiled.variables())
        manifest = parallel._plan_handle(compiled).manifest
        probs32 = np.asarray(marginals, dtype=np.float32)
        missing = (parallel.PLAN_PREFIX + "missing", {}, ())
        good = (manifest, probs32, 0, 0, 64)
        with pytest.raises(ReproError, match="worker failed"):
            parallel._run_tasks(
                parallel._mc_shard,
                [(missing, probs32, 0, 0, 64), good, good, good],
                workers=2,
            )
        time.sleep(0.3)  # let the leftover shards finish
        expected = parallel.monte_carlo_hits(compiled, marginals, 300, seed=5, workers=0)
        assert parallel.monte_carlo_hits(
            compiled, marginals, 300, seed=5, workers=2
        ) == expected

    def test_shutdown_is_idempotent(self):
        parallel.shutdown()
        parallel.shutdown()
        assert pool_pids() == set()


class TestSerialFallbackWarning:
    def test_warns_once_per_process(self, recwarn):
        # A pool that is unavailable on every call must not spam a warning
        # per batch: the latch fires once, then stays quiet until re-armed.
        parallel.reset_serial_fallback_warning()
        parallel.warn_serial_fallback("backend degraded")
        parallel.warn_serial_fallback("backend degraded")
        parallel.warn_serial_fallback("backend degraded again")
        messages = [str(w.message) for w in recwarn.list
                    if "degraded" in str(w.message)]
        assert len(messages) == 1
        assert "once per process" in messages[0]
        parallel.reset_serial_fallback_warning()
        parallel.warn_serial_fallback("backend degraded later")
        assert sum(
            "degraded" in str(w.message) for w in recwarn.list
        ) == 2  # re-armed explicitly: exactly one more

    def test_failing_backend_warns_once_through_evaluate_batch(self, monkeypatch):
        # Route big batches at a pool that always fails: every call must
        # still return correct results, and only the first may warn.
        import warnings as warnings_module

        from repro.circuits import distributed

        compiled = compile_circuit(random_circuit(16))
        matrix = world_matrix(compiled, parallel.PARALLEL_MIN_ROWS + 3)
        # Pin the pool tier on: empty static knob plus no elastic members
        # (the CI distributed job keeps one REGISTERed worker around).
        monkeypatch.setattr(distributed, "registered_hosts", lambda: ())
        with config.overrides(distributed_hosts=()):
            serial = compiled.evaluate_batch(matrix)

            def broken_pass(*_args, **_kwargs):
                raise ReproError("injected pool failure")

            monkeypatch.setattr(parallel, "_sharded_matrix_pass", broken_pass)
            parallel.reset_serial_fallback_warning()
            with config.overrides(parallel_workers=2):
                with warnings_module.catch_warnings(record=True) as caught:
                    warnings_module.simplefilter("always")
                    assert compiled.evaluate_batch(matrix) == serial
                    assert compiled.evaluate_batch(matrix) == serial
        relevant = [w for w in caught if "falling back" in str(w.message)]
        assert len(relevant) == 1
