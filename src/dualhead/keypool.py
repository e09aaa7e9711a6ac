"""Key dictionaries for the contrastive losses.

Two interchangeable generators sit behind one sampling contract, each
holding its keys as per-class segments of one row store:

* ``MocoQueues``: a ``C x Q x d`` and a ``C x Q x L`` array of detached
  twin keys, class c's ``fill[c]`` keys in the last slots of its block,
  oldest first, the oldest evicted at capacity;
* ``MemoryBank``: one momentum-mixed snapshot per training example,
  re-normalized to the unit sphere after every update; its example ids,
  stably sorted by class, are the segments.

Both share one signature, ``sample(keys_per_class, h_query, z_query,
labels, rng)``: it takes the batch's own query keys and returns one
``KeyBatch`` for the whole batch, whose slot 0 is each query's own key, so
every softmax bank has K+1 rows and no query's positive set is ever empty.
A pool is empty while ``len(pool) == 0``, and sampling it then raises
``EmptyPoolError``. Draws are uniform with replacement (early buffers can
hold fewer entries than requested), balanced per class, and fully
determined by the caller's generator: the keys drawn, and the generator's
state after, are exactly those of one ``rng.integers(0, n_c, size=k)``
call per (query, non-empty class c), queries in batch order and classes
ascending, each pick shifted by its class's segment start. A bank built
with ``uniform=True`` draws as many keys from all its snapshots as one
segment, one call per query. Training samples and enqueues through
``sample_group`` and ``enqueue_group``, one pool per replica of a fit
group (a lone fit is a group of one): one draw per pool with that
replica's generator, one stacked block. A pool's own ``sample`` and
``enqueue`` are those calls for a group of one. Unit norm is
checked once per enqueued, installed, mixed-in or gathered block (a
group's stacked block counts as one), and every norm here is
``ndgrad.row_norms``: a non-finite norm raises ``NonFiniteError`` and a
norm under its floor ``DegenerateRowError``, both naming the row (the
example id in the bank).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndgrad import ReplicaMismatch, row_norms

UNIT_TOL = 1e-9


class EmptyPoolError(RuntimeError):
    """Sampling was attempted before any key was available."""


def _check_unit(**blocks: np.ndarray) -> None:
    """Every vector along each block's last axis must have unit norm."""
    for name, rows in blocks.items():
        norms = row_norms(rows.reshape(-1, rows.shape[-1]), name)
        off = np.abs(norms - 1.0)
        if np.maximum.reduce(off, axis=None, initial=0.0) > UNIT_TOL:
            raise ValueError(f"{name} must be unit-norm, got |v|={float(norms[off > UNIT_TOL].flat[0])!r}")


def _key_rows(h, z, labels, stacked: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n x d), (n x L) and (n,) key rows as arrays, behind a leading replica axis if ``stacked``."""
    h, z, labels = np.asarray(h, dtype=np.float64), np.asarray(z, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    lead = 1 + stacked
    if (h.ndim, z.ndim, labels.ndim) != (lead + 1, lead + 1, lead) or not h.shape[:-1] == z.shape[:-1] == labels.shape:
        where = " per replica" if stacked else ""
        raise ValueError(f"need (n x d), (n x L) and (n,) key rows{where}, got {h.shape}, {z.shape}, {labels.shape}")
    return h, z, labels


def _draw(rng: np.random.Generator, queries: int, sizes: np.ndarray | list[int], per_class: int) -> np.ndarray:
    """(queries x classes x per_class) positions in [0, sizes[j]): the module's stream, in one call.

    The call takes a filled-in array of bounds: a broadcast view of the
    same values in the same order draws the same stream, at twice the cost.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    high = np.empty((queries, sizes.shape[0], per_class), dtype=np.int64)
    high[...] = sizes[:, None]
    return rng.integers(0, high)


def _segment_rows(rng: np.random.Generator, queries: int, starts, sizes, per_class: int) -> np.ndarray:
    """(queries x classes*per_class) store rows: _draw's picks shifted by each segment's start."""
    picks = _draw(rng, queries, sizes, per_class)
    return (np.asarray(starts, dtype=np.int64)[None, :, None] + picks).reshape(queries, -1)


@dataclass
class KeyEntry:
    """One detached key: unit feature vector, unit projection, class label."""

    h_key: np.ndarray
    z_key: np.ndarray
    label: int

    def __post_init__(self) -> None:
        self.h_key = np.asarray(self.h_key, dtype=np.float64)
        self.z_key = np.asarray(self.z_key, dtype=np.float64)
        self.label = int(self.label)
        if self.h_key.ndim != 1 or self.z_key.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shapes {self.h_key.shape} and {self.z_key.shape}")
        _check_unit(h_key=self.h_key, z_key=self.z_key)


@dataclass
class KeyBatch:
    """K+1 keys for each of B queries, slot 0 the query's own; constant arrays, never on the tape."""

    h_keys: np.ndarray  # (B x (K+1) x d), behind a replica axis for a fit group
    z_keys: np.ndarray  # (B x (K+1) x L)
    labels: np.ndarray  # (B x (K+1)) int64

    @property
    def size(self) -> int:
        """K: the number of sampled keys per query, excluding slot 0."""
        return int(self.labels.shape[-1]) - 1

    def positive_mask(self, labels: np.ndarray) -> np.ndarray:
        """(B x (K+1)) bool: the keys sharing their query's label."""
        return self.labels == np.asarray(labels, dtype=np.int64)[..., None]


def _sample(pool, keys_per_class: int, h_query, z_query, labels, rng: np.random.Generator) -> KeyBatch:
    """One pool's draw for its (n x d), (n x L) and (n,) queries: ``sample_group`` for a group of one, unstacked."""
    queries = (rows[None] for rows in _key_rows(h_query, z_query, labels))
    batch = sample_group([pool], keys_per_class, *queries, [rng])
    return KeyBatch(batch.h_keys[0], batch.z_keys[0], batch.labels[0])


class MocoQueues:
    """Per-class FIFO blocks of detached keys, each capped at queue_size; class c's segment is the last fill[c] slots."""

    def __init__(self, class_count: int, queue_size: int):
        if class_count < 1 or queue_size < 1:
            raise ValueError("class_count and queue_size must be positive")
        self.class_count = int(class_count)
        self.queue_size = int(queue_size)
        self._h: np.ndarray | None = None  # (C x Q x d), allocated by the first enqueue
        self._z: np.ndarray | None = None  # (C x Q x L)
        self._fill = np.zeros(self.class_count, dtype=np.int64)

    def __len__(self) -> int:
        return int(self._fill.sum())

    def entries(self, label: int) -> list[KeyEntry]:
        """Copies of one class's keys, oldest first."""
        slots = range(self.queue_size - int(self._fill[label]), self.queue_size)
        return [KeyEntry(self._h[label, s].copy(), self._z[label, s].copy(), label) for s in slots]

    def enqueue(self, h: np.ndarray, z: np.ndarray, labels: np.ndarray) -> None:
        """Append each row to its class buffer in order, evicting the oldest at capacity: a group of one."""
        enqueue_group([self], *(rows[None] for rows in _key_rows(h, z, labels)))

    def _check_labels(self, labels: np.ndarray) -> None:
        outside = labels[(labels < 0) | (labels >= self.class_count)]
        if outside.size:
            raise IndexError(f"label {outside[0]} out of range [0, {self.class_count})")

    def _push(self, h: np.ndarray, z: np.ndarray, labels: np.ndarray) -> None:
        """enqueue's writes, for rows whose shape, labels and norms are checked."""
        if self._h is None:
            self._h = np.zeros((self.class_count, self.queue_size, h.shape[1]))
            self._z = np.zeros((self.class_count, self.queue_size, z.shape[1]))
        elif (h.shape[1], z.shape[1]) != (self._h.shape[2], self._z.shape[2]):
            raise ValueError(f"key dims {h.shape[1]}/{z.shape[1]} != queue dims {self._h.shape[2]}/{self._z.shape[2]}")
        q = self.queue_size
        for c in np.unique(labels).tolist():
            keep = np.flatnonzero(labels == c)[-q:]  # earlier rows would be evicted within this call
            k = keep.size
            for store, new in ((self._h, h), (self._z, z)):
                block = store[c]
                block[:q - k] = block[k:]  # the oldest move toward slot 0 and drop out
                block[q - k:] = new[keep]
            self._fill[c] = min(int(self._fill[c]) + k, q)

    sample = _sample  # keys_per_class keys from every non-empty class for each query

    def _drawn(self, keys_per_class: int, queries: int, rng: np.random.Generator):
        """The (queries x K) drawn keys and their labels, from one draw: sample's keys behind slot 0."""
        if keys_per_class < 1:
            raise ValueError("keys_per_class must be >= 1")
        if len(self) == 0:
            raise EmptyPoolError("all class buffers are empty; warm the pool up first")
        q, classes = self.queue_size, np.flatnonzero(self._fill)
        fill = self._fill[classes]
        rows = _segment_rows(rng, queries, classes * q + q - fill, fill, keys_per_class)
        h, z = (a.reshape(-1, a.shape[2])[rows] for a in (self._h, self._z))
        return h, z, rows // q


class MemoryBank:
    """Per-example key snapshots, momentum-mixed and re-normalized on update; ``uniform`` fixes the draw rule."""

    def __init__(self, labels: np.ndarray, m_bank: float = 0.5, uniform: bool = False):
        if not 0.0 <= m_bank <= 1.0:
            raise ValueError(f"bank momentum must be in [0, 1], got {m_bank}")
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        if self.labels.ndim != 1 or self.labels.size == 0:
            raise ValueError("labels must be a nonempty 1-D array")
        self.m_bank = float(m_bank)
        self.uniform = bool(uniform)
        self.h_snap: np.ndarray | None = None
        self.z_snap: np.ndarray | None = None
        self._by_class = np.argsort(self.labels, kind="stable")  # present class j: _sizes[j] ids from _starts[j]
        _, self._starts, self._sizes = np.unique(self.labels[self._by_class], return_index=True, return_counts=True)

    def __len__(self) -> int:
        return 0 if self.h_snap is None else int(self.labels.shape[0])

    def _ids(self, ids) -> np.ndarray:
        if len(self) == 0:
            raise EmptyPoolError("memory bank has no snapshots; warm it up first")
        idx = np.asarray(ids, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.labels.shape[0]):
            raise IndexError("example id out of range")
        return idx

    def initialize(self, h: np.ndarray, z: np.ndarray) -> None:
        """Install the first full set of snapshots (one per example), scaled to unit rows."""
        h, z = (np.asarray(a, dtype=np.float64) for a in (h, z))
        if h.shape[0] != self.labels.shape[0] or z.shape[0] != self.labels.shape[0]:
            raise ValueError("snapshot row count must equal the number of examples")
        # Scale-free, unlike update's NORM_EPS: the floor is the least positive float, so only 0 fails.
        ids, floor = range(self.labels.shape[0]), np.finfo(np.float64).smallest_subnormal
        h, z = h / row_norms(h, "h_snapshot", floor, ids), z / row_norms(z, "z_snapshot", floor, ids)
        _check_unit(h_snapshot=h, z_snapshot=z)
        self.h_snap, self.z_snap = h, z

    def entry(self, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the given examples' snapshots, with their labels."""
        idx = self._ids(ids)
        return self.h_snap[idx], self.z_snap[idx], self.labels[idx]

    def update(self, ids: np.ndarray, h_new: np.ndarray, z_new: np.ndarray) -> None:
        """snapshot <- m*old + (1-m)*new per row, back to unit norm; both blocks are checked before either is written."""
        idx = self._ids(ids)
        h_new, z_new, _ = _key_rows(h_new, z_new, idx.reshape(-1))
        _check_unit(h_new=h_new, z_new=z_new)
        m = self.m_bank
        h, z = m * self.h_snap[idx] + (1.0 - m) * h_new, m * self.z_snap[idx] + (1.0 - m) * z_new
        h, z = h / row_norms(h, "h_snapshot", ids=idx), z / row_norms(z, "z_snapshot", ids=idx)
        _check_unit(h_snapshot=h, z_snapshot=z)
        self.h_snap[idx], self.z_snap[idx] = h, z

    sample = _sample  # MocoQueues.sample's contract, drawn from the snapshots by the bank's own rule

    def _drawn(self, keys_per_class: int, queries: int, rng: np.random.Generator):
        """The (queries x K) drawn snapshots and their labels, from one draw: sample's keys behind slot 0."""
        if keys_per_class < 1:
            raise ValueError("keys_per_class must be >= 1")
        if len(self) == 0:
            raise EmptyPoolError("memory bank has no snapshots; warm it up first")
        if self.uniform:
            idx = _segment_rows(rng, queries, [0], [self.labels.shape[0]], keys_per_class * self._sizes.shape[0])
        else:
            idx = self._by_class[_segment_rows(rng, queries, self._starts, self._sizes, keys_per_class)]
        return self.h_snap[idx], self.z_snap[idx], self.labels[idx]


def sample_group(pools, keys_per_class: int, h_query, z_query, labels, rngs) -> KeyBatch:
    """Each replica's pool sampled for its stacked (n x d), (n x L) and (n,) queries with its own generator.

    Every pool makes its own one draw, so each stream is its ``sample`` call's. Each replica's own and drawn
    keys go once into one (S x B x (K+1) x d) block, slot 0 first, unit-checked once. Raises
    ``ReplicaMismatch`` when the pools draw different numbers of keys (queues whose non-empty classes differ).
    """
    queries = _key_rows(h_query, z_query, labels, stacked=True)
    drawn = [pool._drawn(keys_per_class, queries[2].shape[1], rng) for pool, rng in zip(pools, rngs)]
    if len({d[2].shape for d in drawn}) > 1:
        raise ReplicaMismatch(f"replicas drew key blocks of shapes {[d[2].shape for d in drawn]}")
    blocks = []
    for own, keys in zip(queries, zip(*drawn)):
        block = np.empty((*own.shape[:2], keys[0].shape[1] + 1, *own.shape[2:]), dtype=own.dtype)
        block[:, :, 0] = own
        for r, replica_keys in enumerate(keys):
            block[r, :, 1:] = replica_keys
        blocks.append(block)
    h, z, labels = blocks
    _check_unit(h_keys=h, z_keys=z)
    return KeyBatch(h, z, labels)


def enqueue_group(pools: list[MocoQueues], h, z, labels) -> None:
    """Each replica's stacked (n x d), (n x L) and (n,) key rows into its own queues, unit-checked once."""
    h, z, labels = _key_rows(h, z, labels, stacked=True)
    for pool, y in zip(pools, labels):
        pool._check_labels(y)
    _check_unit(h_key=h, z_key=z)
    for pool, *rows in zip(pools, h, z, labels):
        pool._push(*rows)
