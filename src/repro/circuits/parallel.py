"""Sharded multi-process batch evaluation: the fourth lowering stage.

The numpy batch kernels (:mod:`repro.circuits.compiled`, third stage) run a
whole world matrix through one level-scheduled pass — but on a single core.
This module shards that work across a persistent
:class:`concurrent.futures.ProcessPoolExecutor`:

- a :class:`~repro.circuits.compiled.Plan`'s CSR arrays (``kinds``/
  ``offsets``/``indices``/``var_slot``) and its level schedule are
  published **once** per plan into a :mod:`multiprocessing.shared_memory`
  segment (:func:`_plan_handle`); workers attach, build the level plan
  from them, and cache it, so a task pickles a small descriptor, never a
  copy of the plan;
- world/marginal matrices are placed in a per-call shared segment and split
  into contiguous **row shards**; each worker writes its slice of the output
  into the same segment, so no matrix crosses a pipe
  (:func:`evaluate_batch_sharded`, :func:`probability_batch_sharded`);
- Monte-Carlo and Karp–Luby get a **fused sample+evaluate** path
  (:func:`monte_carlo_hits`, :func:`karp_luby_hits`): the sample range is cut
  into fixed-size shards of :data:`MC_SHARD` draws, shard ``i`` is generated
  *inside* a worker from ``numpy.random.default_rng((seed, i))``, evaluated
  through the batch kernels, and reduced to a single hit count — the full
  world matrix never exists anywhere, and the parent only sums integers.
  Monte-Carlo worlds are drawn lazily, 64 to a random word
  (:func:`_mc_shard_hits`).

**Determinism.** The shard decomposition depends only on ``(samples,
MC_SHARD)`` and each shard's generator only on ``(seed, shard_index)`` —
never on the worker count or scheduling order. A fixed seed therefore gives
*bit-identical* estimates whether the shards run in-process (``workers=0``)
or on 1, 2 or 8 workers.

**Lifecycle.** Segments are named ``repro-plan-*`` (per plan, unlinked
when the plan is garbage-collected) and ``repro-buf-*`` (per call,
unlinked in a ``finally``). Everything still live is torn down by an
``atexit`` hook (:func:`shutdown`), and :func:`active_segments` exposes the
registry so tests can assert nothing leaked. A worker death, between
calls or during one, costs one re-run: the call drops the broken pool and
runs again on a fresh one, which every shard allows because it is
idempotent. Only a second death in the same call raises
:class:`~repro.util.ReproError`, after per-call segments are released
(:func:`_run_tasks`).

Knob: ``workers=`` on every entry point, defaulting to the process-wide
``parallel_workers`` knob of :mod:`repro.config` (set with
``config.configure``/``config.overrides``, the ``REPRO_PARALLEL_WORKERS``
environment variable — an integer or ``auto`` — or the CLI ``--workers``
flag). ``0``/``1`` mean in-process; the fused kernels run either way.
Without ``multiprocessing.shared_memory`` the subsystem reports itself
unavailable and every consumer stays on the serial paths.
"""

from __future__ import annotations

import atexit
import secrets
import signal
import weakref

import numpy as np

from repro import config
from repro.circuits import compiled as _compiled
from repro.util import ReproError, check

try:  # capability check: sharded evaluation needs POSIX shared memory
    from multiprocessing import get_all_start_methods, get_context
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - exotic platforms only
    _shm = None

#: Fixed shard granularity (in samples) of the fused sample+evaluate paths.
#: Part of the deterministic seeding scheme: shard ``i`` always covers draws
#: ``[i * MC_SHARD, (i+1) * MC_SHARD)`` regardless of the worker count.
MC_SHARD = 1 << 14

#: Below this many rows the sharded matrix paths are not worth the
#: shared-memory round trip: :func:`may_leave_process` says no, and with
#: it the tier ladder (:meth:`~repro.circuits.compiled.Plan.run`),
#: ``should_shard`` and the distributed tier's ``should_distribute``.
PARALLEL_MIN_ROWS = 2048

#: Shared-memory name prefixes: per-plan segments vs per-call buffers.
PLAN_PREFIX = "repro-plan-"
BUFFER_PREFIX = "repro-buf-"

_PLAN_CACHE_LIMIT = 8  # plans cached per worker before eviction


def parallel_available() -> bool:
    """Whether the sharded multi-process backend can run at all.

    Requires ``multiprocessing.shared_memory``. The ``parallel_workers``
    knob is ignored when this is false — every consumer silently stays on the serial path.
    """
    return _shm is not None


def _effective_workers(workers: int | None) -> int:
    """The worker count of a call: ``workers``, or the knob when ``None``.

    A per-call count must be what the ``parallel_workers`` knob accepts,
    an ``int`` >= 0 that is not a ``bool``.
    """
    check(
        workers is None
        or (isinstance(workers, int) and not isinstance(workers, bool)
            and workers >= 0),
        f"workers must be None or a non-negative int, got {workers!r}",
    )
    if not parallel_available():
        return 0
    if workers is None:
        return config.get("parallel_workers")
    return workers


def may_leave_process(n_rows: int) -> bool:
    """Whether a batch of ``n_rows`` is big enough for the pool or the hosts.

    The one row test of both out-of-process tiers: a smaller batch runs
    in this process whatever the knobs say.
    """
    return n_rows >= PARALLEL_MIN_ROWS


def should_shard(n_rows: int, workers: int | None = None) -> bool:
    """Whether a batch of ``n_rows`` should go through the worker pool."""
    return may_leave_process(n_rows) and _effective_workers(workers) >= 2


_SERIAL_FALLBACK_WARNED = False


def warn_serial_fallback(message: str, stacklevel: int = 4) -> None:
    """Warn that a parallel tier degraded to a slower one — once per process.

    Large runs hit the degraded path on *every* batch (a dead pool stays
    dead until the next rebuild), so a per-call warning used to flood the
    output; the first occurrence carries all the signal. Tests reset the
    latch via :func:`reset_serial_fallback_warning`.
    """
    global _SERIAL_FALLBACK_WARNED
    if _SERIAL_FALLBACK_WARNED:
        return
    _SERIAL_FALLBACK_WARNED = True
    import warnings

    warnings.warn(
        message + " (warning once per process)", RuntimeWarning, stacklevel=stacklevel
    )


def reset_serial_fallback_warning() -> None:
    """Re-arm :func:`warn_serial_fallback` (test isolation hook)."""
    global _SERIAL_FALLBACK_WARNED
    _SERIAL_FALLBACK_WARNED = False


# --------------------------------------------------------------------------- #
# shared-memory segments

_LIVE_BUFFERS: dict[str, "SharedBuffers"] = {}


def active_segments() -> tuple[str, ...]:
    """Names of shared-memory segments this process currently owns."""
    return tuple(sorted(_LIVE_BUFFERS))


class SharedBuffers:
    """Named numpy arrays packed into one shared-memory segment.

    The parent constructs one from a ``{name: array-or-(shape, dtype)}``
    mapping (tuples allocate uninitialized output space) and ships the
    pickled :attr:`manifest` — segment name, metadata, and per-array
    ``(key, dtype, shape, offset)`` entries — to workers, which map the
    same physical pages with :meth:`attach`. The creator owns the segment:
    :meth:`close` unlinks it and is idempotent; every live instance is
    registered so :func:`shutdown` can sweep stragglers at exit.
    """

    def __init__(self, arrays, *, prefix: str = BUFFER_PREFIX, meta=None):
        check(_shm is not None, "shared memory is unavailable on this platform")
        entries = []
        prepared = []
        offset = 0
        for key, value in arrays.items():
            if isinstance(value, tuple):
                shape, dtype = value
                source = None
            else:
                source = np.ascontiguousarray(value)
                shape, dtype = source.shape, source.dtype
            dtype = np.dtype(dtype)
            offset = -(-offset // 16) * 16  # 16-byte alignment per array
            entries.append((key, dtype.str, tuple(shape), offset))
            prepared.append((key, source, shape, dtype, offset))
            offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        name = prefix + secrets.token_hex(8)
        self.shm = _shm.SharedMemory(name=name, create=True, size=max(1, offset))
        self.closed = False
        self.arrays = {}
        for key, source, shape, dtype, off in prepared:
            view = np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=off)
            if source is not None:
                view[...] = source
            self.arrays[key] = view
        self.manifest = (self.shm.name, dict(meta or {}), tuple(entries))
        _LIVE_BUFFERS[self.shm.name] = self

    def close(self) -> None:
        """Release the views and unlink the segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self.arrays = {}
        _LIVE_BUFFERS.pop(self.shm.name, None)
        try:
            self.shm.close()
        except BufferError:  # a caller still holds a view; unlink anyway
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass

    @staticmethod
    def attach(manifest):
        """Map a manifest's segment; returns ``(shm, meta, views)``.

        The caller must drop the views before closing ``shm`` (and must not
        unlink — the creator owns the segment). Pool workers share the
        parent's resource tracker (fork and spawn both hand the tracker fd
        down), so the attach-side registration is a set-level no-op and the
        name is swept exactly once, when the owner unlinks.
        """
        name, meta, entries = manifest
        shm = _shm.SharedMemory(name=name)
        views = {
            key: np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
            for key, dtype, shape, off in entries
        }
        return shm, meta, views


def _plan_handle(plan) -> SharedBuffers:
    """A :class:`~repro.circuits.compiled.Plan`'s arrays in a new segment.

    The shared-memory segment holds the four int32 CSR arrays and the
    level schedule, everything a worker's
    :class:`~repro.circuits.compiled._BatchPlan` is built from. It is
    unlinked when the plan is garbage-collected (or at interpreter exit
    via :func:`shutdown`). The plan keeps the handle
    (:meth:`~repro.circuits.compiled.Plan.shared_handle`), so each plan
    is published once.
    """
    handle = SharedBuffers(
        dict(zip(_compiled.PLAN_ARRAYS, plan.arrays())),
        prefix=PLAN_PREFIX,
        meta={"output": plan.output},
    )
    weakref.finalize(plan, handle.close)
    return handle


# --------------------------------------------------------------------------- #
# worker side

#: A worker process's level plans, by plan segment name.
_WORKER_PLANS: dict[str, object] = {}


def _worker_plan(manifest, cache):
    """A worker's level-scheduled plan for one shared circuit, cached by name."""
    name = manifest[0]
    plan = cache.get(name)
    if plan is None:
        shm, meta, views = SharedBuffers.attach(manifest)
        try:
            # Copies, so nothing the plan keeps can pin the closed segment.
            arrays = [views[key].copy() for key in _compiled.PLAN_ARRAYS]
        finally:
            views = None
            shm.close()
        plan = _compiled._BatchPlan(*arrays, meta["output"])
        while len(cache) >= _PLAN_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[name] = plan
    return plan


#: Bits of the uniform ``U`` each Monte-Carlo draw compares with a
#: variable's threshold ``t = ceil(p * 2**24)``: the precision of numpy's
#: float32 draw, so the law of each bit is that of ``float32 draw < p``.
_MC_BITS = 24

#: Entries (one ``(word, variable slot)`` pair, 64 worlds) per tile of a
#: shard's lazy draw, and the levels each tile draws for every entry in one
#: ``random_raw`` call. Like :data:`MC_SHARD` they define the random
#: stream; they are not tuning knobs.
_MC_TILE = 1 << 14
_MC_EAGER = 9

_ALL_WORLDS = ~np.uint64(0)


def _mc_level(draw, undecided, held, bits) -> None:
    """One level of the lazy comparison, in place; ``draw`` is consumed.

    A set bit of ``draw`` says that world's bit of ``U`` differs from
    the threshold's bit at this level: an undecided world it hits is
    decided, and holds exactly when the threshold's bit, the top bit of
    ``bits``, is 1. ``bits`` then moves on to the next threshold bit.
    """
    np.bitwise_and(draw, undecided, out=draw)
    np.bitwise_xor(undecided, draw, out=undecided)
    spread = np.right_shift(bits.view(np.int64), 63).view(np.uint64)
    np.left_shift(bits, np.uint64(1), out=bits)
    np.bitwise_and(draw, spread, out=draw)
    np.bitwise_or(held, draw, out=held)


def _mc_tile(bitgen, thresholds):
    """The decided words of one tile of entries, given their thresholds.

    Bit ``i`` of entry ``j``'s word says whether world ``i`` of that word
    holds the entry's variable, that is whether its ``U`` is below
    ``thresholds[j]`` (int64, in ``[0, 2**24]``). Thresholds 0 and
    ``2**24`` decide every world up front. The first :data:`_MC_EAGER`
    levels come from one ``random_raw`` call, level-major; each later level
    draws one output per entry that still has an undecided world, in entry
    order. A world still undecided after :data:`_MC_BITS` levels has
    ``U == t`` and does not hold.

    A level above the top set bit of every undecided threshold in the tile
    can only decide "not held": its threshold bits are all 0. Those eager
    levels fold into one OR of their draws that clears ``undecided``, which
    leaves the words and the stream exactly as level by level; small
    marginals fold most of the eager levels, marginals above 1/2 none.
    """
    size = thresholds.size
    held = np.where(thresholds >> _MC_BITS != 0, _ALL_WORLDS, np.uint64(0))
    # The bits below 2**24: none for the thresholds decided up front.
    low = thresholds & ((1 << _MC_BITS) - 1)
    undecided = np.where(low != 0, _ALL_WORLDS, np.uint64(0))
    fold = min(_MC_EAGER, _MC_BITS - int(low.max(initial=0)).bit_length())
    # The thresholds' bits from the first unfolded level down, top-aligned
    # (a shift of int64 keeps the bit pattern of the uint64 shift).
    bits = np.left_shift(thresholds, 64 - _MC_BITS + fold).view(np.uint64)
    eager = bitgen.random_raw(_MC_EAGER * size).reshape(_MC_EAGER, size)
    if fold:
        cleared = np.bitwise_or.reduce(eager[:fold], axis=0)
        np.bitwise_and(undecided, np.invert(cleared, out=cleared), out=undecided)
    for draw in eager[fold:]:
        _mc_level(draw, undecided, held, bits)
    live = undecided.nonzero()[0]
    undecided, part, bits = undecided[live], held[live], bits[live]
    for _level in range(_MC_EAGER, _MC_BITS):
        if not live.size:
            break
        _mc_level(bitgen.random_raw(live.size), undecided, part, bits)
        keep = undecided.nonzero()[0]
        if keep.size < live.size:
            held[live] = part
            live, undecided, part, bits = (
                live[keep], undecided[keep], part[keep], bits[keep]
            )
    held[live] = part
    return held


def _entry_blocks(first: int, stop: int, n_vars: int):
    """Cut the entries ``[first, stop)`` into word-aligned blocks.

    Entries run word-major, in slot order: entry ``e`` is slot
    ``e % n_vars`` of word ``e // n_vars``. Yields ``(offset, word, words,
    lo, hi)``: the next ``words * (hi - lo)`` entries, from ``offset`` on,
    are slots ``lo .. hi-1`` of words ``word .. word+words-1``. At most
    three blocks: the rest of a word, whole words, the start of a word.
    """
    offset = 0
    while first < stop:
        word, lo = divmod(first, n_vars)
        if lo or stop - first < n_vars:
            words, hi = 1, min(n_vars, lo + stop - first)
        else:
            words, hi = (stop - first) // n_vars, n_vars
        yield offset, word, words, lo, hi
        span = words * (hi - lo)
        offset += span
        first += span


def _tile_thresholds(thresholds, first: int, stop: int):
    """The int64 thresholds of entries ``[first, stop)``, per entry;
    ``thresholds`` holds one int64 threshold per variable slot."""
    n_vars = thresholds.size
    out = np.empty(stop - first, dtype=np.int64)
    for offset, _word, words, lo, hi in _entry_blocks(first, stop, n_vars):
        block = out[offset : offset + words * (hi - lo)].reshape(words, hi - lo)
        block[...] = thresholds[lo:hi]
    return out


def _mc_shard_hits(plan, probs32, seed: int, index: int, count: int) -> int:
    """Fused sample+evaluate for one Monte-Carlo shard: worlds never escape.

    Draws ``count`` worlds from the shard's own ``default_rng((seed,
    index))``, runs them through the plan's bit-sliced Boolean pass, and
    returns only the hit count. A world holds the variable of slot ``s``
    when a uniform 24-bit ``U`` is below ``t = ceil(probs32[s] * 2**24)``
    (clipped to ``[0, 2**24]``, 0 for NaN), so each bit has the law of a
    float32 draw below the marginal.

    The draw is lazy and bit-sliced: ``U`` is compared with ``t`` from the
    top bit down, and one 64-bit generator output decides, for the 64
    worlds of a word, whose bit of ``U`` differs from ``t``'s at that level
    (:func:`_mc_tile`). The shard's ``(word, slot)`` entries, word-major in
    slot order, are cut into tiles of :data:`_MC_TILE` entries. A word is
    decided after about 7.3 levels on average, whatever the marginal; with
    the eager levels it costs about 9.2 outputs, against 32 for 64 float32
    draws. Decided words go straight into the variable rows of the plan's
    :meth:`~repro.circuits.compiled._BatchPlan.word_buffer`, one kernel
    chunk at a time. The stream depends on ``(seed, index, count,
    probs32)`` only, never on the chunking, the row layout, or where the
    shard runs. The padding worlds of a shard's last word are drawn like
    the others and never counted.
    """
    bitgen = np.random.default_rng((seed, index)).bit_generator
    n_vars = probs32.size
    # t per variable, made once per shard: computed in float64 in place,
    # then cast to int64. Scaling is exact; fmax sends NaN and negatives
    # to 0.
    thresholds = probs32.astype(np.float64)
    thresholds *= float(1 << _MC_BITS)
    np.fmax(thresholds, 0.0, out=thresholds)
    np.fmin(thresholds, float(1 << _MC_BITS), out=thresholds)
    np.ceil(thresholds, out=thresholds)
    thresholds = thresholds.astype(np.int64)
    row_of_slot = (
        None if np.array_equal(plan.var_slots, np.arange(n_vars))
        else np.argsort(plan.var_slots)
    )
    n_words = -(-count // 64)
    chunk_words = plan.chunk_rows(as_float=False) // 64
    tile_start = tile_stop = 0
    hits = 0
    for base in range(0, n_words, chunk_words):
        words = min(chunk_words, n_words - base)
        chunk_rows = min(64 * words, count - 64 * base)
        values = plan.word_buffer(chunk_rows)
        # Bit i of a decided word is world i: stored little-endian, that is
        # bit i % 8 of byte i // 8, the word buffer's layout on any host.
        little = values.view("<u8")
        # This chunk's entries, tile by tile; a tile that runs past the
        # chunk keeps its rest for the next one.
        first, stop = base * n_vars, (base + words) * n_vars
        while first < stop:
            if first == tile_stop:
                tile_start = first
                tile_stop = min(first + _MC_TILE, n_words * n_vars)
                tile = _mc_tile(
                    bitgen, _tile_thresholds(thresholds, tile_start, tile_stop)
                )
            end = min(stop, tile_stop)
            decided = tile[first - tile_start : end - tile_start]
            for offset, word, span, lo, hi in _entry_blocks(first, end, n_vars):
                rows = slice(lo, hi) if row_of_slot is None else row_of_slot[lo:hi]
                little[rows, word - base : word - base + span] = decided[
                    offset : offset + span * (hi - lo)
                ].reshape(span, hi - lo).T
            first = end
        plan.run_words(values)
        hits += int(np.count_nonzero(plan.output_bits(values, chunk_rows)))
    return hits


def _kl_shard_hits(
    membership, probs, cumulative, total_weight, seed, index, count
) -> int:
    """Fused Karp–Luby trial for one shard (witness pick + world + test).

    The witness picks come first, then the worlds, chunk by chunk from the
    same generator — the stream of one ``(count, n_facts)`` draw, with no
    chunk's float64 draw above :data:`~repro.circuits.compiled.BATCH_BYTE_BUDGET`.
    """
    sizes = membership.sum(axis=1, dtype=np.int32)
    rng = np.random.default_rng((seed, index))
    chosen = np.searchsorted(cumulative, rng.random(count) * total_weight)
    chosen = np.minimum(chosen, len(cumulative) - 1)
    step = max(
        1, _compiled.BATCH_BYTE_BUDGET // (8 * max(1, probs.size, len(cumulative)))
    )
    hits = 0
    for start in range(0, count, step):
        picks = chosen[start : start + step]
        worlds = rng.random((picks.size, probs.size)) < probs
        worlds |= membership[picks].astype(bool)
        contained = worlds.astype(np.int32) @ membership.T == sizes
        first = contained.argmax(axis=1)  # the pick is contained: a True exists
        hits += int(np.count_nonzero(first == picks))
    return hits


def _eval_shard(plan_manifest, data_manifest, as_float, row_start, row_end) -> None:
    """One row shard of a sharded matrix pass, written into the call's segment."""
    plan = _worker_plan(plan_manifest, _WORKER_PLANS)
    shm, _meta, views = SharedBuffers.attach(data_manifest)
    try:
        plan.run_into(
            views["matrix"][row_start:row_end],
            views["out"][row_start:row_end],
            as_float,
        )
    finally:
        views = None
        shm.close()


def _mc_shard(plan_manifest, probs32, seed, index, count) -> int:
    """One Monte-Carlo shard's hit count, on the published plan."""
    plan = _worker_plan(plan_manifest, _WORKER_PLANS)
    return _mc_shard_hits(plan, probs32, seed, index, count)


def _kl_shard(tables_manifest, seed, index, count) -> int:
    """One Karp–Luby shard's hit count, on the published witness tables."""
    shm, meta, views = SharedBuffers.attach(tables_manifest)
    try:
        return _kl_shard_hits(
            views["membership"],
            views["probs"],
            views["cumulative"],
            meta["total_weight"],
            seed,
            index,
            count,
        )
    finally:
        views = None
        shm.close()


# --------------------------------------------------------------------------- #
# the pool

_POOL = None  # (size, concurrent.futures.ProcessPoolExecutor) while one runs


def _get_pool(workers: int):
    """The shared executor, rebuilt when the size changes.

    Workers are forked where the platform can: spawned ones start about
    ten times slower and need every calling script to guard its main
    module. They ignore SIGINT, so a Ctrl-C lands in the parent, which
    tears the pool down through its ``finally``/atexit path.
    """
    global _POOL
    if _POOL is not None and _POOL[0] != workers:
        shutdown_pool()
    if _POOL is None:
        from concurrent.futures import ProcessPoolExecutor

        method = "fork" if "fork" in get_all_start_methods() else "spawn"
        executor = ProcessPoolExecutor(
            workers,
            mp_context=get_context(method),
            initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN),
        )
        _POOL = (workers, executor)
    return _POOL[1]


def shutdown_pool() -> None:
    """Stop the worker pool; the next parallel call starts a fresh one."""
    global _POOL
    if _POOL is not None:
        _POOL[1].shutdown(cancel_futures=True)
        _POOL = None


def shutdown() -> None:
    """Tear down the pool and unlink every live shared-memory segment."""
    shutdown_pool()
    for buffers in list(_LIVE_BUFFERS.values()):
        buffers.close()


atexit.register(shutdown)

def _run_tasks(shard, calls, workers: int) -> list:
    """``[shard(*args) for args in calls]``, run on the pool, in call order.

    A worker death costs one re-run: a broken pool, met when the tasks are
    submitted (a worker died since the last call) or while they run, is
    dropped and the whole call runs again on a fresh one. That is safe
    because every shard is idempotent: a sampling shard depends only on
    ``(seed, shard)``, and an eval shard rewrites its own slice of the
    call's segment. If the re-run breaks too, the pool is dropped and
    :class:`~repro.util.ReproError` is raised; the caller's ``finally``
    releases its per-call segments. A failing task cancels the tasks not
    yet started and raises :class:`~repro.util.ReproError`, leaving the
    pool running: every task has its own future, so nothing of an aborted
    run reaches the next one.
    """
    from concurrent.futures.process import BrokenProcessPool

    for _attempt in range(2):
        pool = _get_pool(workers)
        futures = []
        try:
            futures.extend(pool.submit(shard, *args) for args in calls)
            return [future.result() for future in futures]
        except BrokenProcessPool:
            shutdown_pool()
        except Exception as exc:  # a task raised: report it, keep the pool
            for future in futures:
                future.cancel()
            raise ReproError(
                f"parallel worker failed: {type(exc).__name__}: {exc}"
            ) from exc
    raise ReproError(
        "a parallel worker died mid-run, twice; the pool will be rebuilt "
        "on the next call"
    )


# --------------------------------------------------------------------------- #
# sharded entry points

def _row_shards(
    n_rows: int, workers: int, parts_per_worker: int = 2
) -> list[tuple[int, int]]:
    """Contiguous near-equal row ranges, ``parts_per_worker`` per worker.

    Two per worker suffices for the homogeneous local pool; the
    distributed tier asks for more so its work-stealing queue has slack to
    rebalance between hosts of unequal speed.
    """
    parts = min(n_rows, max(1, workers * parts_per_worker))
    bounds = [n_rows * i // parts for i in range(parts + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _sharded_matrix_pass(plan, matrix, as_float: bool, workers: int):
    """A checked matrix's row shards, evaluated by ``workers`` pool workers.

    The pool tier of :meth:`~repro.circuits.compiled.Plan.run`: the
    matrix goes into a per-call segment, each worker writes its rows of
    the output there, and the call returns a copy.
    """
    n_rows = matrix.shape[0]
    manifest = plan.shared_handle().manifest
    data = SharedBuffers({"matrix": matrix, "out": ((n_rows,), matrix.dtype)})
    try:
        calls = [
            (manifest, data.manifest, as_float, start, end)
            for start, end in _row_shards(n_rows, workers)
        ]
        _run_tasks(_eval_shard, calls, workers)
        return data.arrays["out"].copy()
    finally:
        data.close()


def evaluate_batch_sharded(compiled, matrix, workers: int | None = None):
    """Boolean batch evaluation with the world matrix split across workers.

    ``matrix`` is ``(n_worlds, n_vars)`` in variable-slot order; returns a
    boolean array, one entry per row, bit-identical to
    :meth:`~repro.circuits.compiled.CompiledCircuit.evaluate_batch` — the
    shards run the exact same kernels on the exact same rows, whatever
    the batch size. With fewer than two effective workers the pass runs
    in-process. ``compiled`` may also be a
    :class:`~repro.circuits.compiled.Plan` or a circuit.
    """
    return _compiled.plan_of(compiled).run(
        matrix, as_float=False, hosts=(), workers=workers
    )


def probability_batch_sharded(compiled, matrix, workers: int | None = None):
    """The Theorem-1 float pass over row-sharded marginal matrices.

    Like :func:`evaluate_batch_sharded` but for
    :meth:`~repro.circuits.compiled.CompiledCircuit.probability_batch`
    (correct on deterministic decomposable circuits only); returns a
    float64 array.
    """
    return _compiled.plan_of(compiled).run(
        matrix, as_float=True, hosts=(), workers=workers
    )


def _sample_shards(samples: int) -> list[tuple[int, int]]:
    """``(shard_index, count)`` pairs of the fixed deterministic split."""
    shard = MC_SHARD
    return [
        (index, min(shard, samples - index * shard))
        for index in range((samples + shard - 1) // shard)
    ]


def check_sampling(samples, seed) -> int:
    """Reject a sample count or seed no sampler accepts; returns the seed.

    ``samples`` must be a positive int and ``seed`` a non-negative int;
    neither may be a bool.
    """
    check(
        isinstance(samples, (int, np.integer))
        and not isinstance(samples, bool)
        and samples > 0,
        f"samples must be a positive int, got {samples!r}",
    )
    check(
        isinstance(seed, (int, np.integer))
        and not isinstance(seed, bool)
        and seed >= 0,
        f"seed must be a non-negative int, got {seed!r}",
    )
    return int(seed)


def mc_marginals(marginals, n_vars: int):
    """The marginals as float32, checked to hold one per variable slot."""
    probs32 = np.asarray(marginals, dtype=np.float32)
    check(
        probs32.ndim == 1 and probs32.size == n_vars,
        f"need {n_vars} marginals, one per variable slot, "
        f"got shape {probs32.shape}",
    )
    return probs32


def kl_tables(membership, probs, weights):
    """Karp–Luby tables, checked: int32 membership, float64 probabilities
    and float64 cumulative weights, whose last entry is the total weight.

    ``membership`` must be a 2-D matrix with a row per witness, ``probs``
    hold one probability per column and ``weights`` one weight per row.
    """
    membership = np.ascontiguousarray(membership, dtype=np.int32)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    check(
        membership.ndim == 2 and membership.shape[0] > 0,
        f"the membership matrix must be 2-D with a row per witness, "
        f"got shape {membership.shape}",
    )
    n_witnesses, n_facts = membership.shape
    check(
        probs.shape == (n_facts,),
        f"need {n_facts} probabilities, one per membership column, "
        f"got shape {probs.shape}",
    )
    check(
        weights.shape == (n_witnesses,),
        f"need {n_witnesses} weights, one per membership row, "
        f"got shape {weights.shape}",
    )
    return membership, probs, np.cumsum(weights)


def monte_carlo_hits(
    compiled, marginals, samples: int, seed: int = 0, workers: int | None = None
) -> int:
    """Fused sample+evaluate Monte-Carlo hit count over the lineage circuit.

    ``marginals`` holds one probability per variable slot of
    ``compiled``. Splits ``samples`` into :data:`MC_SHARD`-sized shards;
    each shard draws its worlds lazily, 64 to a word, from its own
    ``default_rng((seed, shard_index))`` (:func:`_mc_shard_hits`) and
    evaluates them through the level-scheduled batch kernels, inside the
    worker processes when ``workers >= 2`` and in-process otherwise. The
    hits depend on the seed, the sample count and the marginals only, so
    they are bit-identical at any worker count. The full world matrix is
    never materialized; only per-shard hit counts are reduced.
    """
    plan = _compiled.plan_of(compiled)
    seed = check_sampling(samples, seed)
    probs32 = mc_marginals(marginals, plan.n_vars)
    shards = _sample_shards(samples)
    workers = _effective_workers(workers)
    if workers < 2 or len(shards) < 2:
        batch_plan = plan.batch_plan()
        return sum(
            _mc_shard_hits(batch_plan, probs32, seed, index, count)
            for index, count in shards
        )
    manifest = plan.shared_handle().manifest
    calls = [(manifest, probs32, seed, index, count) for index, count in shards]
    return sum(_run_tasks(_mc_shard, calls, workers))


def karp_luby_hits(
    membership,
    probs,
    weights,
    samples: int,
    seed: int = 0,
    workers: int | None = None,
) -> int:
    """Fused Karp–Luby trial count over the witness-membership matrix.

    ``membership`` is the 0/1 ``(n_witnesses, n_facts)`` matrix, ``probs``
    the per-fact marginals, ``weights`` the per-witness weights. Uses the
    same deterministic ``(seed, shard_index)`` scheme as
    :func:`monte_carlo_hits`; each worker draws its shard's witness picks
    and worlds and tests containment with one matrix product.
    """
    seed = check_sampling(samples, seed)
    membership, probs, cumulative = kl_tables(membership, probs, weights)
    total_weight = float(cumulative[-1])
    shards = _sample_shards(samples)
    workers = _effective_workers(workers)
    if workers < 2 or len(shards) < 2:
        return sum(
            _kl_shard_hits(
                membership, probs, cumulative, total_weight, seed, index, count
            )
            for index, count in shards
        )
    tables = SharedBuffers(
        {"membership": membership, "probs": probs, "cumulative": cumulative},
        meta={"total_weight": total_weight},
    )
    try:
        calls = [(tables.manifest, seed, index, count) for index, count in shards]
        return sum(_run_tasks(_kl_shard, calls, workers))
    finally:
        tables.close()
