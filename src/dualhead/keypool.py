"""Key dictionaries for the contrastive losses: one key store per fit group.

Every array of a store has a leading replica axis of S, one replica per
config of the group (S = 1 for a lone fit). Two interchangeable
generators hold each replica's keys as per-class segments of one row store:

* ``MocoQueues``: ``S x C x Q x d`` and ``S x C x Q x L`` rings of
  detached twin keys, and an ``S x C`` count of the keys each has taken.
  A ring holds its newest ``fill = min(count, Q)`` keys, the oldest at
  slot ``(count - fill) % Q``, so at capacity a new key evicts the oldest;
* ``MemoryBank``: ``S x N x d`` and ``S x N x L`` momentum-mixed unit
  snapshots, one per replica and training example. Each replica's example
  ids, stably sorted by label, are its segments; a ``uniform`` bank draws
  as many keys from all N as one segment.

``draw(keys_per_class, h_query, z_query, labels, rngs)`` takes each
replica's queries, stacked, and its generator, and returns one
``KeyBatch`` whose slot 0 is each query's own key, so no query's
positive set is ever empty. Replica s's keys, and its generator's state
after, are exactly those of one ``rng.integers(0, n_c, size=k)`` call per
(query, non-empty class c), queries in batch order and classes ascending:
uniform with replacement and balanced per class. Each replica makes one
``rng.integers`` call; the bounds, gathers, slot-0 write, queue write,
bank mix and unit checks run once for the group. An empty store raises
``EmptyPoolError``; replicas whose key blocks would differ in shape raise
``ReplicaMismatch`` before any generator moves.

``sample``, ``enqueue``, ``entry``, ``update`` and ``initialize`` are
``draw``, ``push``, ``own``, ``mix`` and ``install`` for a lone store, on
unstacked rows; ``replicas()`` gives a read-only lone store per replica.
A row is unit-checked once, by ``ndgrad.row_norms``, as it enters: pushed,
installed, mixed in (divided by its own checked norm) or drawn for as a
query. A failure names the replica and the row (the example id in a bank).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ndgrad import ReplicaMismatch, _row_name, row_norms

UNIT_TOL = 1e-9


class EmptyPoolError(RuntimeError):
    """Sampling was attempted before any key was available."""


def _check_unit(ids=None, **blocks: np.ndarray) -> None:
    """Every vector along each block's last axis must have unit norm; a failure names its row as ``row_norms`` does."""
    for name, rows in blocks.items():
        norms = row_norms(rows, name, ids=ids)
        off = np.abs(norms - 1.0)
        if np.maximum.reduce(off, axis=None, initial=0.0) > UNIT_TOL:
            index = tuple(np.argwhere(off > UNIT_TOL)[0])
            raise ValueError(f"{_row_name(index[:-1], ids)} of {name} must be unit-norm, got |v|={float(norms[index])!r}")


def _key_rows(h, z, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each replica's (n x d), (n x L) and (n,) key rows as (S x n x d), (S x n x L) and (S x n) arrays."""
    h, z, labels = np.asarray(h, dtype=np.float64), np.asarray(z, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    if (h.ndim, z.ndim, labels.ndim) != (3, 3, 2) or not h.shape[:-1] == z.shape[:-1] == labels.shape:
        raise ValueError(f"need (n x d), (n x L) and (n,) key rows per replica, got {h.shape}, {z.shape}, {labels.shape}")
    return h, z, labels


def _lone(method):
    """``method`` for a lone store: each unstacked argument behind a replica axis of one, each output without it."""

    @functools.wraps(method)
    def lone(self, *arrays):
        out = method(self, *(np.asarray(a)[None] for a in arrays))
        return None if out is None else tuple(a[0] for a in out)

    return lone


def _views(store, lone, *names: str) -> list:
    """A read-only lone store per replica r, ``lone(r)`` over its rows of the store's arrays ``names``."""
    views = []
    for r in range(store.replica_count):
        views.append(view := lone(r))
        for name in names:
            setattr(view, name, None if getattr(store, name) is None else getattr(store, name)[r:r + 1])
        for value in vars(view).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return views


def _draw(rngs, queries: int, sizes: np.ndarray, per_class: int) -> np.ndarray:
    """(S x queries x segments x per_class) positions in [0, sizes[s, j]): replica s's stream, in one call of rngs[s]."""
    shape = (queries, sizes.shape[1], per_class)
    picks = np.empty((sizes.shape[0], *shape), dtype=np.int64)
    high = np.maximum.reduce(sizes, axis=None)
    if np.minimum.reduce(sizes, axis=None) != high:  # one scalar bound if equal, else a filled-in block (a view is slower)
        high = np.empty_like(picks)
        high[...] = sizes[:, None, :, None]
    for s, rng in enumerate(rngs):
        picks[s] = rng.integers(0, high if high.ndim == 0 else high[s], size=shape)
    return picks


@dataclass
class KeyEntry:
    """One detached key: unit feature vector, unit projection, class label."""

    h_key: np.ndarray
    z_key: np.ndarray
    label: int

    def __post_init__(self) -> None:
        self.h_key, self.z_key = np.asarray(self.h_key, dtype=np.float64), np.asarray(self.z_key, dtype=np.float64)
        self.label = int(self.label)
        if self.h_key.ndim != 1 or self.z_key.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shapes {self.h_key.shape} and {self.z_key.shape}")
        _check_unit(h_key=self.h_key[None], z_key=self.z_key[None])


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


def _draw_keys(store, keys_per_class: int, h_query, z_query, labels, rngs) -> KeyBatch:
    """Each replica's keys for its stacked (n x d), (n x L) and (n,) queries: one (S x B x (K+1) x d) block, slot 0 first."""
    own = _key_rows(h_query, z_query, labels)
    if keys_per_class < 1:
        raise ValueError("keys_per_class must be >= 1")
    replicas, queries = own[2].shape
    if replicas != len(rngs) or replicas != store.replica_count:
        raise ValueError(f"{replicas} replicas of queries and {len(rngs)} generators for a store of {store.replica_count}")
    rows, drawn_labels, *keys = store._drawn(keys_per_class, queries, rngs)
    _check_unit(h_keys=own[0], z_keys=own[1])
    blocks = []
    for own_rows, drawn in zip(own, (*keys, None)):
        block = np.empty((replicas, queries, rows.shape[-1] + 1, *own_rows.shape[2:]), dtype=own_rows.dtype)
        block[:, :, 0] = own_rows
        block[:, :, 1:] = drawn_labels if drawn is None else drawn.reshape(-1, drawn.shape[-1])[rows]
        blocks.append(block)
    return KeyBatch(*blocks)


def _sample(store, keys_per_class: int, h_query, z_query, labels, rng: np.random.Generator) -> KeyBatch:
    """A lone store's draw for its (n x d), (n x L) and (n,) queries: an unstacked ``KeyBatch``."""
    batch = store.draw(keys_per_class, *(np.asarray(a)[None] for a in (h_query, z_query, labels)), [rng])
    return KeyBatch(batch.h_keys[0], batch.z_keys[0], batch.labels[0])


class MocoQueues:
    """Per-replica, per-class rings of detached keys, each capped at queue_size."""

    def __init__(self, class_count: int, queue_size: int, replicas: int = 1):
        if class_count < 1 or queue_size < 1 or replicas < 1:
            raise ValueError("class_count, queue_size and replicas must be positive")
        self.class_count, self.queue_size = int(class_count), int(queue_size)
        self._h = self._z = None  # (S x C x Q x d) and (S x C x Q x L), allocated by the first push
        self._count = np.zeros((replicas, self.class_count), dtype=np.int64)  # the keys each ring has taken
        self.replica_count = int(replicas)

    def __len__(self) -> int:
        return int(np.minimum(self._count, self.queue_size).sum())

    def replicas(self) -> list[MocoQueues]:
        """A read-only lone store per replica, over its rows of this store's arrays."""
        return _views(self, lambda _: MocoQueues(self.class_count, self.queue_size), "_h", "_z", "_count")

    def push(self, h, z, labels) -> None:
        """Each replica's (n x d), (n x L) and (n,) key rows into its class rings in order, checked before any write."""
        h, z, labels = _key_rows(h, z, labels)
        if labels.shape[0] != self.replica_count:
            raise ValueError(f"{labels.shape[0]} replicas of keys for a store of {self.replica_count}")
        onehot = labels[..., None] == np.arange(self.class_count)
        if np.count_nonzero(onehot) != labels.size:
            raise IndexError(f"label {labels[~onehot.any(axis=-1)][0]} out of range [0, {self.class_count})")
        _check_unit(h_key=h, z_key=z)
        if self._h is None:
            self._h, self._z = (np.zeros((*self._count.shape, self.queue_size, a.shape[2])) for a in (h, z))
        elif (h.shape[2], z.shape[2]) != (self._h.shape[3], self._z.shape[3]):
            raise ValueError(f"key dims {h.shape[2]}/{z.shape[2]} != queue dims {self._h.shape[3]}/{self._z.shape[3]}")
        if not labels.size:
            return
        q, taken = self.queue_size, onehot.cumsum(axis=1)  # (S x n x C) running class counts
        ring = labels + self.class_count * np.arange(self.replica_count)[:, None]  # each row's (replica, class) ring
        rank = taken[onehot].reshape(labels.shape) - 1  # each row's place among its class's rows
        slots = ring * q + (self._count.ravel()[ring] + rank) % q
        new = taken[:, -1]
        if np.maximum.reduce(new, axis=None) > q:  # earlier rows would be evicted within this call
            keep = rank >= new.ravel()[ring] - q
            slots, h, z = slots[keep], h[keep], z[keep]
        self._h.reshape(-1, self._h.shape[3])[slots] = h
        self._z.reshape(-1, self._z.shape[3])[slots] = z
        self._count += new

    draw = _draw_keys
    sample = _sample  # keys_per_class keys from every non-empty class for each query
    enqueue = _lone(push)

    def _drawn(self, keys_per_class: int, queries: int, rngs):
        """The drawn keys' (S x queries x K) rows in the flattened rings, their labels, and the rings."""
        q, fill = self.queue_size, np.minimum(self._count, self.queue_size)
        replica, classes = fill.nonzero()  # each replica's non-empty classes, ascending
        if not classes.size:
            raise EmptyPoolError("all class buffers are empty; warm the pool up first")
        per_replica = np.bincount(replica, minlength=self.replica_count).tolist()
        if min(per_replica) != max(per_replica):
            raise ReplicaMismatch(f"replicas drew key blocks of shapes {[(queries, keys_per_class * n) for n in per_replica]}")
        ring = (replica * self.class_count + classes).reshape(self.replica_count, -1)
        picks = _draw(rngs, queries, fill.ravel()[ring], keys_per_class)
        oldest = (self._count - fill).ravel()[ring][:, None, :, None]
        rows = ring[:, None, :, None] * q + (oldest + picks) % q
        labels = classes.reshape(self.replica_count, -1).repeat(keys_per_class, axis=1)[:, None]
        return rows.reshape(self.replica_count, queries, -1), labels, self._h, self._z


class MemoryBank:
    """Per-replica, per-example key snapshots, momentum-mixed and re-normalized on update; ``uniform`` fixes the draw rule."""

    EMPTY = "memory bank has no snapshots; warm it up first"

    def __init__(self, labels: np.ndarray, m_bank: float = 0.5, uniform: bool = False):
        """``labels``: each replica's (N,) example labels as an (S x N) array; a 1-D array is one replica's."""
        if not 0.0 <= m_bank <= 1.0:
            raise ValueError(f"bank momentum must be in [0, 1], got {m_bank}")
        labels = np.asarray(labels, dtype=np.int64)
        self.labels = labels = (labels[None] if labels.ndim == 1 else labels).copy()
        if labels.ndim != 2 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-D array, or one such row per replica")
        self.m_bank, self.uniform = float(m_bank), bool(uniform)
        self.h_snap = self.z_snap = None  # (S x N x d) and (S x N x L), from install
        self.replica_count, n = labels.shape
        start = n * np.arange(self.replica_count)[:, None]  # replica s's rows of the flattened snapshots start at s * N
        order = np.argsort(labels, axis=1, kind="stable")
        self._by_class = (order + start).ravel()  # segment rows -> snapshot rows, each replica's ids sorted by label
        segments = (np.unique(y, return_index=True, return_counts=True)[1:] for y in np.take_along_axis(labels, order, 1))
        firsts, sizes = zip(*segments)
        if len({c.size for c in sizes}) > 1:
            raise ReplicaMismatch(f"replicas hold {[c.size for c in sizes]} classes in their banks")
        # Replica s's segment j: _sizes[s, j] rows from _starts[s, j]; one segment of all N snapshots when uniform.
        self._classes = sizes[0].size
        self._starts, self._sizes = (start, np.full_like(start, n)) if uniform else (np.array(firsts) + start, np.array(sizes))

    def __len__(self) -> int:
        return 0 if self.h_snap is None else self.labels.size

    def replicas(self) -> list[MemoryBank]:
        """A read-only lone bank per replica, its snapshots over its rows of this bank's."""
        return _views(self, lambda r: MemoryBank(self.labels[r], self.m_bank, self.uniform), "h_snap", "z_snap")

    def _index(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Each replica's (S x B) example ids behind its replica's number: an index of the (S x N) snapshots."""
        if len(self) == 0:
            raise EmptyPoolError(self.EMPTY)
        idx = np.asarray(ids, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[0] != self.replica_count:
            raise ValueError(f"need one row of example ids per replica ({self.replica_count}), got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.labels.shape[1]):
            raise IndexError("example id out of range")
        return np.arange(self.replica_count)[:, None], idx

    def install(self, h: np.ndarray, z: np.ndarray) -> None:
        """The first full set of snapshots, (S x N x d) and (S x N x L), one per replica and example, scaled to unit rows."""
        h, z = (np.asarray(a, dtype=np.float64) for a in (h, z))
        if h.ndim != 3 or z.ndim != 3 or h.shape[:2] != self.labels.shape or z.shape[:2] != self.labels.shape:
            raise ValueError("snapshot row count must equal the number of examples")
        # Scale-free, unlike mix's NORM_EPS: the floor is the least positive float, so only 0 fails.
        ids, floor = range(self.labels.shape[1]), np.finfo(np.float64).smallest_subnormal
        h, z = h / row_norms(h, "h_snapshot", floor, ids), z / row_norms(z, "z_snapshot", floor, ids)
        _check_unit(ids, h_snapshot=h, z_snapshot=z)
        self.h_snap, self.z_snap = h, z

    def own(self, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of each replica's snapshots of its (S x B) example ids, with their labels."""
        index = self._index(ids)
        return self.h_snap[index], self.z_snap[index], self.labels[index]

    def mix(self, ids, h_new, z_new) -> None:
        """snapshot <- m*old + (1-m)*new for each replica's (S x B) ids, over its checked norm; all checked before any write."""
        index = self._index(ids)
        h_new, z_new, _ = _key_rows(h_new, z_new, ids)
        _check_unit(ids, h_new=h_new, z_new=z_new)
        m = self.m_bank
        h, z = m * self.h_snap[index] + (1.0 - m) * h_new, m * self.z_snap[index] + (1.0 - m) * z_new
        h, z = h / row_norms(h, "h_snapshot", ids=ids), z / row_norms(z, "z_snapshot", ids=ids)
        self.h_snap[index], self.z_snap[index] = h, z

    draw = _draw_keys
    sample = _sample  # MocoQueues.sample's contract, drawn from the snapshots by the bank's own rule
    initialize, entry, update = _lone(install), _lone(own), _lone(mix)

    def _drawn(self, keys_per_class: int, queries: int, rngs):
        """The drawn snapshots' (S x queries x K) rows in the flattened bank, their labels, and the snapshots."""
        if self.h_snap is None:
            raise EmptyPoolError(self.EMPTY)
        picks = _draw(rngs, queries, self._sizes, keys_per_class * (self._classes if self.uniform else 1))
        rows = (self._starts[:, None, :, None] + picks).reshape(self.replica_count, queries, -1)
        if not self.uniform:
            rows = self._by_class[rows]
        return rows, self.labels.ravel()[rows], self.h_snap, self.z_snap
