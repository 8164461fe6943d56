"""Sharded multi-process batch evaluation: the fourth lowering stage.

The numpy batch kernels (:mod:`repro.circuits.compiled`, third stage) run a
whole world matrix through one level-scheduled pass — but on a single core.
This module shards that work across a persistent pool of worker processes:

- the compiled circuit's CSR arrays (``kinds``/``offsets``/``indices``/
  ``var_slot``) are published **once** per circuit into a
  :mod:`multiprocessing.shared_memory` segment (:func:`plan_manifest`);
  workers attach, rebuild the level schedule locally, and cache it, so a
  task costs one small pickled descriptor, never a copy of the plan;
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

**Determinism.** The shard decomposition depends only on ``(samples,
MC_SHARD)`` and each shard's generator only on ``(seed, shard_index)`` —
never on the worker count or scheduling order. A fixed seed therefore gives
*bit-identical* estimates whether the shards run in-process (``workers=0``)
or on 1, 2 or 8 workers.

**Lifecycle.** Segments are named ``repro-plan-*`` (per compiled circuit,
unlinked when the circuit is garbage-collected) and ``repro-buf-*`` (per
call, unlinked in a ``finally``). Everything still live is torn down by an
``atexit`` hook (:func:`shutdown`), and :func:`active_segments` exposes the
registry so tests can assert nothing leaked. A worker that dies (crash,
``kill -9``) is detected: the pool is rebuilt on the next call, and a death
*mid-run* raises :class:`~repro.util.ReproError` after per-call segments are
released.

Knob: ``workers=`` on every entry point, defaulting to the process-wide
:func:`parallel_workers` (settable via :func:`set_parallel_workers`, the
scoped :func:`parallel_workers_set`, the ``REPRO_PARALLEL_WORKERS``
environment variable — an integer or ``auto`` — or the CLI ``--workers``
flag). ``0``/``1`` mean in-process; the fused kernels run either way.
Without ``multiprocessing.shared_memory`` the subsystem reports itself
unavailable and every consumer stays on the serial paths.
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal
import weakref

import numpy as np

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
#: shared-memory round trip; ``should_shard`` says no.
PARALLEL_MIN_ROWS = 2048

#: Shared-memory name prefixes: per-circuit plans vs per-call buffers.
PLAN_PREFIX = "repro-plan-"
BUFFER_PREFIX = "repro-buf-"

_PLAN_CACHE_LIMIT = 8  # plans cached per worker before eviction


def _workers_from_env() -> int:
    raw = os.environ.get("REPRO_PARALLEL_WORKERS", "").strip().lower()
    if not raw:
        return 0
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


_WORKERS = _workers_from_env()


def parallel_available() -> bool:
    """Whether the sharded multi-process backend can run at all.

    Requires ``multiprocessing.shared_memory``. The knob below is ignored
    when this is false — every consumer silently stays on the serial path.
    """
    return _shm is not None


def parallel_workers() -> int:
    """The process-wide worker count (0 = serial, the default)."""
    return _WORKERS


def set_parallel_workers(workers: int | None) -> None:
    """Set the process-wide worker count; ``None`` or ``0`` mean serial."""
    global _WORKERS
    workers = 0 if workers is None else int(workers)
    check(workers >= 0, f"worker count must be >= 0, got {workers}")
    _WORKERS = workers


def parallel_workers_set(workers: int | None):
    """Scope a :func:`set_parallel_workers` change, restoring the previous one.

    Thin shim over :func:`repro.config.overrides`.
    """
    from repro import config

    return config.overrides(parallel_workers=workers)


def _effective_workers(workers: int | None) -> int:
    if not parallel_available():
        return 0
    return _WORKERS if workers is None else max(0, int(workers))


def should_shard(n_rows: int, workers: int | None = None) -> bool:
    """Whether a batch of ``n_rows`` should go through the worker pool."""
    return n_rows >= PARALLEL_MIN_ROWS and _effective_workers(workers) >= 2


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


def _plan_handle(compiled) -> SharedBuffers:
    """The circuit's CSR arrays in shared memory, published once and cached.

    The segment holds exactly the four int32 batch-plan arrays; workers
    rebuild the level schedule from them. It is unlinked when the compiled
    circuit is garbage-collected (or at interpreter exit via
    :func:`shutdown`), after which a fresh call republishes.
    """
    handle = compiled._shared_plan
    if handle is not None and handle.closed:
        handle = None
    if handle is None:
        handle = SharedBuffers(
            {
                "kinds": np.asarray(compiled.kinds, dtype=np.int32),
                "offsets": np.asarray(compiled.offsets, dtype=np.int32),
                "indices": np.asarray(compiled.indices, dtype=np.int32),
                "var_slot": np.asarray(compiled.var_slot, dtype=np.int32),
            },
            prefix=PLAN_PREFIX,
            meta={
                "size": compiled.size,
                "output": compiled.output,
                "n_vars": len(compiled.var_names),
            },
        )
        compiled._shared_plan = handle
        weakref.finalize(compiled, handle.close)
    return handle


# --------------------------------------------------------------------------- #
# worker side

class _PlanShell:
    """Duck-type of ``CompiledCircuit`` that ``_BatchPlan`` lowers from."""

    __slots__ = ("kinds", "offsets", "indices", "var_slot", "size", "output")

    def __init__(self, meta, views):
        self.kinds = views["kinds"].tolist()
        self.offsets = views["offsets"].tolist()
        self.indices = views["indices"].tolist()
        self.var_slot = views["var_slot"].tolist()
        self.size = int(meta["size"])
        self.output = int(meta["output"])


def _worker_plan(manifest, cache):
    """A worker's level-scheduled plan for one shared circuit, cached by name."""
    name = manifest[0]
    plan = cache.get(name)
    if plan is None:
        shm, meta, views = SharedBuffers.attach(manifest)
        try:
            shell = _PlanShell(meta, views)
        finally:
            views = None
            shm.close()
        plan = _compiled._BatchPlan(shell)
        while len(cache) >= _PLAN_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[name] = plan
    return plan


#: Byte cap on the raw 32-bit outputs of one ``random_raw`` call of a
#: Monte-Carlo shard (its bool test results take a quarter of that).
_DRAW_BYTES = 1 << 25


def _mc_limits(probs32):
    """Integer form of the float32 hit test ``draw < p``, per variable.

    numpy's float32 draw from a 32-bit generator output ``u`` is
    ``(u >> 8) * 2**-24``, so ``draw < p`` holds exactly when
    ``u >> 8 < t`` with ``t = ceil(p * 2**24)`` (clipped to ``[0, 2**24]``,
    0 for NaN), that is when ``u <= 256 * t - 1``. Returns those ``uint32``
    limits and the variables with ``t == 0``, whose limit would wrap: they
    never hold.
    """
    scaled = probs32.astype(np.float64) * float(1 << 24)  # exact
    thresholds = np.ceil(
        np.where(scaled > 0, np.minimum(scaled, float(1 << 24)), 0.0)
    )
    limits = np.maximum(thresholds * 256 - 1, 0).astype(np.uint32)
    return limits, np.flatnonzero(thresholds == 0)


def _mc_shard_hits(plan, probs32, seed: int, index: int, count: int) -> int:
    """Fused sample+evaluate for one Monte-Carlo shard: worlds never escape.

    Draws ``count`` worlds from the shard's own ``default_rng((seed,
    index))``, runs them through the plan's bit-sliced Boolean pass, and
    returns only the hit count. Variable ``s`` holds in a world when that
    world's float32 draw is below ``probs32[s]``; the ≤2⁻²⁴ rounding of
    each marginal is far below Monte-Carlo noise at any feasible sample
    count. The draws never become floats: raw 32-bit generator outputs
    (``random_raw`` viewed as ``uint32``) meet the integer limits of
    :func:`_mc_limits`, each 8 worlds' results pack into one byte plane,
    and one transposing copy per staged run of whole words moves the
    planes into the variable rows of the plan's
    :meth:`~repro.circuits.compiled._BatchPlan.word_buffer`. One draw
    stays under :data:`_DRAW_BYTES`: 8 worlds at 10⁶ variables, a whole
    shard on small plans. The outputs are consumed in the order
    ``rng.random((count, n_vars), dtype=float32)`` consumes them, so the
    hits are bit-identical to that whole-matrix draw, which is never
    held.
    """
    bitgen = np.random.default_rng((seed, index)).bit_generator
    n_vars = probs32.size
    limits, never = _mc_limits(probs32)
    if np.array_equal(plan.var_slots, np.arange(n_vars)):
        columns = slice(None, n_vars)
    else:
        columns = plan.var_slots
    step = plan.chunk_rows(as_float=False)
    # Bool result rows are padded to whole uint64 lanes, so the 8 rows of a
    # plane pack with seven word-wide shift-ors over every plane of a
    # draw. Worlds per draw: whole planes, so only a shard's last draw can
    # end halfway through a 64-bit output. Per staged copy: whole words.
    width = max(8, -(-n_vars // 8) * 8)
    per_draw = _DRAW_BYTES // (4 * max(1, n_vars)) // 8 * 8
    per_draw = max(8, min(step, -(-count // 8) * 8, per_draw))
    per_stage = -(-per_draw // 64) * 64
    # Zeroed, never empty: a byte above 1 would spill into its neighbour
    # when shifted.
    results = np.zeros((per_draw, width), dtype=np.bool_)
    planes = np.zeros((per_stage // 8, width), dtype=np.uint8)
    plane_lanes = planes.view(np.uint64)
    shifted = np.empty((per_draw // 8, width // 8), dtype=np.uint64)
    hits = 0
    for start in range(0, count, step):
        rows = min(step, count - start)
        values = plan.word_buffer(rows)
        var_bytes = values[: plan.var_slots.size].view(np.uint8)
        for first in range(0, rows, per_stage):
            staged = min(per_stage, rows - first)
            for low in range(0, staged, per_draw):
                filled = min(per_draw, staged - low)
                need = filled * n_vars
                # Little-endian words split low half first, the order
                # numpy's own 32-bit draws take them in.
                raw = bitgen.random_raw(-(-need // 2)).astype("<u8", copy=False)
                np.less_equal(
                    raw.view("<u4")[:need].reshape(filled, n_vars),
                    limits,
                    out=results[:filled, :n_vars],
                )
                # Rows past ``filled`` hold stale results: padding worlds.
                n_planes = -(-filled // 8)
                lanes = results[: 8 * n_planes].view(np.uint64)
                lanes = lanes.reshape(n_planes, 8, width // 8)
                packed = plane_lanes[low // 8 : low // 8 + n_planes]
                np.copyto(packed, lanes[:, 0])
                for bit in range(1, 8):
                    np.left_shift(lanes[:, bit], np.uint64(bit), out=shifted[:n_planes])
                    packed |= shifted[:n_planes]
            n_planes = -(-staged // 8)
            if never.size:
                planes[:n_planes, never] = 0
            var_bytes[:, first // 8 : first // 8 + n_planes] = (
                planes[:n_planes, columns].T
            )
        plan.run_words(values)
        hits += int(np.count_nonzero(plan.output_bits(values, rows)))
    return hits


def _kl_shard_hits(
    membership, sizes, probs, cumulative, total_weight, seed, index, count
) -> int:
    """Fused Karp–Luby trial for one shard (witness pick + world + test).

    The witness picks come first, then the worlds, chunk by chunk from the
    same generator — the stream of one ``(count, n_facts)`` draw, with no
    chunk's float64 draw above :data:`~repro.circuits.compiled.BATCH_BYTE_BUDGET`.
    """
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


def _execute_task(kind, payload, plan_cache):
    if kind == "eval":
        plan_manifest, data_manifest, as_float, row_start, row_end = payload
        plan = _worker_plan(plan_manifest, plan_cache)
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
        return None
    if kind == "mc":
        plan_manifest, probs32, seed, index, count = payload
        plan = _worker_plan(plan_manifest, plan_cache)
        return _mc_shard_hits(plan, probs32, seed, index, count)
    if kind == "kl":
        tables_manifest, seed, index, count = payload
        shm, meta, views = SharedBuffers.attach(tables_manifest)
        try:
            membership = views["membership"]
            return _kl_shard_hits(
                membership,
                membership.sum(axis=1, dtype=np.int32),
                views["probs"],
                views["cumulative"],
                meta["total_weight"],
                seed,
                index,
                count,
            )
        finally:
            views = None
            membership = None
            shm.close()
    if kind == "exit":  # test hook: simulate a worker dying mid-run
        os._exit(17)
    raise ReproError(f"unknown parallel task kind {kind!r}")


def _worker_main(tasks, results):
    """Worker loop: pull a task, run it, push ``(id, ok, value)``.

    SIGINT is ignored so a Ctrl-C lands in the parent, which tears the pool
    down through its ``finally``/atexit path; the loop itself exits on the
    ``None`` sentinel. Caught exceptions are reported per task (the pool
    re-raises them as :class:`ReproError`), so one bad shard does not kill
    the worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    plan_cache: dict[str, object] = {}
    while True:
        item = tasks.get()
        if item is None:
            break
        task_id, kind, payload = item
        try:
            value = _execute_task(kind, payload, plan_cache)
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            results.put((task_id, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.put((task_id, True, value))


# --------------------------------------------------------------------------- #
# the pool

class WorkerCrashed(ReproError):
    """A worker process died mid-run (crash, OOM kill, ``kill -9``).

    Distinct from an ordinary task failure — a crashed worker leaves the
    pool degraded, so :func:`_run_tasks` tears it down for rebuilding,
    while a task-level error keeps the healthy pool running.
    """


class WorkerPool:
    """A persistent pool of batch-kernel workers fed through one task queue.

    Workers pull ``(id, kind, payload)`` tuples from a shared queue — big
    operands travel through shared memory, only descriptors are pickled —
    and push results to a shared result queue. :meth:`run` submits a task
    list and blocks until every result arrived, polling worker liveness so
    a crashed worker surfaces as :class:`WorkerCrashed` instead of a hang.
    """

    def __init__(self, size: int):
        check(size >= 1, "worker pool needs at least one worker")
        method = "fork" if "fork" in get_all_start_methods() else "spawn"
        ctx = get_context(method)
        self.size = size
        self.tasks = ctx.SimpleQueue()
        self.results = ctx.Queue()
        self.processes = [
            ctx.Process(target=_worker_main, args=(self.tasks, self.results), daemon=True)
            for _ in range(size)
        ]
        for process in self.processes:
            process.start()
        self._next_id = 0

    def alive(self) -> bool:
        return all(process.is_alive() for process in self.processes)

    def pids(self) -> tuple[int, ...]:
        return tuple(process.pid for process in self.processes)

    def run(self, task_list) -> list:
        """Run ``[(kind, payload), ...]``; results in submission order."""
        import queue as _queue

        ids = []
        for kind, payload in task_list:
            task_id = self._next_id
            self._next_id += 1
            ids.append(task_id)
            self.tasks.put((task_id, kind, payload))
        collected: dict[int, object] = {}
        pending = set(ids)
        while pending:
            try:
                task_id, ok, value = self.results.get(timeout=0.2)
            except _queue.Empty:
                if not self.alive():
                    raise WorkerCrashed(
                        "a parallel worker died mid-run; the pool will be "
                        "rebuilt on the next call"
                    ) from None
                continue
            if task_id not in pending:
                # Stale result from an earlier aborted run (a failure made
                # run() raise while later shards were still in flight);
                # task ids are never reused, so just drop it.
                continue
            if not ok:
                raise ReproError(f"parallel worker failed: {value}")
            collected[task_id] = value
            pending.discard(task_id)
        return [collected[task_id] for task_id in ids]

    def shutdown(self) -> None:
        """Stop every worker (sentinel, then join, then terminate stragglers)."""
        for process in self.processes:
            if process.is_alive():
                try:
                    self.tasks.put(None)
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    break
        for process in self.processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for q in (self.tasks, self.results):
            try:
                q.close()
            except (OSError, ValueError):  # pragma: no cover
                pass


_POOL: WorkerPool | None = None


def _get_pool(workers: int) -> WorkerPool:
    """The shared pool, rebuilt when the size changes or a worker died."""
    global _POOL
    if _POOL is not None and (_POOL.size != workers or not _POOL.alive()):
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = WorkerPool(workers)
    return _POOL


def pool_processes() -> tuple[int, ...]:
    """PIDs of the current pool's workers (empty when no pool is running)."""
    return _POOL.pids() if _POOL is not None else ()


def shutdown_pool() -> None:
    """Terminate the worker pool; the next parallel call spawns a fresh one."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def shutdown() -> None:
    """Tear down the pool and unlink every live shared-memory segment."""
    shutdown_pool()
    for buffers in list(_LIVE_BUFFERS.values()):
        buffers.close()


atexit.register(shutdown)


def _run_tasks(task_list, workers: int) -> list:
    try:
        return _get_pool(workers).run(task_list)
    except WorkerCrashed:
        shutdown_pool()
        raise


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


def _sharded_matrix_pass(compiled, matrix, as_float: bool, workers: int | None):
    check(parallel_available(), "sharded evaluation requires shared memory")
    workers = _effective_workers(workers)
    dtype = np.float64 if as_float else np.bool_
    matrix = np.ascontiguousarray(matrix, dtype=dtype)
    check(
        matrix.ndim == 2 and matrix.shape[1] == len(compiled.var_names),
        f"world matrix must be (n, {len(compiled.var_names)}), got {matrix.shape}",
    )
    n_rows = matrix.shape[0]
    out_dtype = np.float64 if as_float else np.bool_
    if n_rows == 0:
        return np.empty(0, dtype=out_dtype)
    if workers < 2:
        out = np.empty(n_rows, dtype=out_dtype)
        compiled.batch_plan().run_into(matrix, out, as_float)
        return out
    plan = _plan_handle(compiled)
    data = SharedBuffers({"matrix": matrix, "out": ((n_rows,), out_dtype)})
    try:
        tasks = [
            ("eval", (plan.manifest, data.manifest, as_float, start, end))
            for start, end in _row_shards(n_rows, workers)
        ]
        _run_tasks(tasks, workers)
        return data.arrays["out"].copy()
    finally:
        data.close()


def evaluate_batch_sharded(compiled, matrix, workers: int | None = None):
    """Boolean batch evaluation with the world matrix split across workers.

    ``matrix`` is ``(n_worlds, n_vars)`` in variable-slot order; returns a
    boolean array, one entry per row, bit-identical to
    :meth:`~repro.circuits.compiled.CompiledCircuit.evaluate_batch` — the
    shards run the exact same kernels on the exact same rows. With fewer
    than two effective workers the pass runs in-process.
    """
    return _sharded_matrix_pass(compiled, matrix, as_float=False, workers=workers)


def probability_batch_sharded(compiled, matrix, workers: int | None = None):
    """The Theorem-1 float pass over row-sharded marginal matrices.

    Like :func:`evaluate_batch_sharded` but for
    :meth:`~repro.circuits.compiled.CompiledCircuit.probability_batch`
    (correct on deterministic decomposable circuits only); returns a
    float64 array.
    """
    return _sharded_matrix_pass(compiled, matrix, as_float=True, workers=workers)


def _sample_shards(samples: int) -> list[tuple[int, int]]:
    """``(shard_index, count)`` pairs of the fixed deterministic split."""
    shard = MC_SHARD
    return [
        (index, min(shard, samples - index * shard))
        for index in range((samples + shard - 1) // shard)
    ]


def monte_carlo_hits(
    compiled, marginals, samples: int, seed: int = 0, workers: int | None = None
) -> int:
    """Fused sample+evaluate Monte-Carlo hit count over the lineage circuit.

    Splits ``samples`` into :data:`MC_SHARD`-sized shards, draws each
    shard's worlds from its own ``default_rng((seed, shard_index))`` and
    evaluates them through the level-scheduled batch kernels — inside the
    worker processes when ``workers >= 2``, in-process otherwise, with
    bit-identical results either way. The full world matrix is never
    materialized; only per-shard hit counts are reduced.
    """
    check(samples > 0, "need at least one sample")
    seed = 0 if seed is None else int(seed)
    probs32 = np.asarray(marginals, dtype=np.float32)
    shards = _sample_shards(samples)
    workers = _effective_workers(workers)
    if workers < 2 or len(shards) < 2 or _shm is None:
        plan = compiled.batch_plan()
        return sum(
            _mc_shard_hits(plan, probs32, seed, index, count)
            for index, count in shards
        )
    manifest = _plan_handle(compiled).manifest
    tasks = [("mc", (manifest, probs32, seed, index, count)) for index, count in shards]
    return sum(_run_tasks(tasks, workers))


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
    check(samples > 0, "need at least one sample")
    seed = 0 if seed is None else int(seed)
    membership = np.ascontiguousarray(membership, dtype=np.int32)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    cumulative = np.cumsum(np.asarray(weights, dtype=np.float64))
    total_weight = float(cumulative[-1])
    shards = _sample_shards(samples)
    workers = _effective_workers(workers)
    if workers < 2 or len(shards) < 2 or _shm is None:
        sizes = membership.sum(axis=1, dtype=np.int32)
        return sum(
            _kl_shard_hits(
                membership, sizes, probs, cumulative, total_weight,
                seed, index, count,
            )
            for index, count in shards
        )
    tables = SharedBuffers(
        {"membership": membership, "probs": probs, "cumulative": cumulative},
        meta={"total_weight": total_weight},
    )
    try:
        tasks = [
            ("kl", (tables.manifest, seed, index, count)) for index, count in shards
        ]
        return sum(_run_tasks(tasks, workers))
    finally:
        tables.close()
