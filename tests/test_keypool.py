"""Queue and memory-bank behavior: routing, eviction, sampling, mixing."""

import inspect
import warnings

import numpy as np
import pytest

from dualhead.keypool import (
    EmptyPoolError,
    KeyEntry,
    MemoryBank,
    MocoQueues,
    _check_unit,
    _draw,
)
from dualhead.ndgrad import DegenerateRowError, NonFiniteError
from unfused import RingQueues, per_class_bank_sample


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def entry(label, d=3, L=2, seed=None, tag=0.0):
    if seed is None:
        h = np.zeros(d)
        h[label % d] = 1.0
        z = np.zeros(L)
        z[label % L] = 1.0
        if tag:
            h = unit(h + tag)
            z = unit(z + tag)
        return KeyEntry(h_key=h, z_key=z, label=label)
    rng = np.random.default_rng(seed)
    return KeyEntry(h_key=unit(rng.normal(size=d)), z_key=unit(rng.normal(size=L)), label=label)


def rows(entries):
    """(h, z, labels) arrays holding the given entries in order."""
    return (
        np.array([e.h_key for e in entries]),
        np.array([e.z_key for e in entries]),
        np.array([e.label for e in entries], dtype=np.int64),
    )


class TestKeyEntry:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            KeyEntry(h_key=np.array([1.0, 1.0]), z_key=np.array([1.0, 0.0]), label=0)

    def test_requires_vectors(self):
        with pytest.raises(ValueError):
            KeyEntry(h_key=np.eye(2), z_key=np.array([1.0, 0.0]), label=0)


class TestMocoQueues:
    def test_fifo_eviction(self):
        pool = MocoQueues(class_count=1, queue_size=2)
        a, b, c = (entry(0, seed=s) for s in (1, 2, 3))
        pool.enqueue(*rows([a, b, c]))
        kept = pool.entries(0)
        assert len(kept) == 2
        np.testing.assert_array_equal(kept[0].h_key, b.h_key)
        np.testing.assert_array_equal(kept[1].h_key, c.h_key)

    def test_push_to_empty(self):
        pool = MocoQueues(class_count=2, queue_size=4)
        pool.enqueue(*rows([entry(1, seed=0)]))
        assert [len(pool.entries(c)) for c in range(2)] == [0, 1]

    def test_interleaved_routing_label_audit(self):
        # Exhaustive replay: every entry must land in its label's buffer.
        pool = MocoQueues(class_count=3, queue_size=8)
        rng = np.random.default_rng(42)
        pushed = [entry(int(rng.integers(3)), seed=i) for i in range(30)]
        pool.enqueue(*rows(pushed))
        for c in range(3):
            expect = [e for e in pushed if e.label == c][-8:]
            got = pool.entries(c)
            assert [e.label for e in got] == [c] * len(got)
            assert len(got) == len(expect)
            for e_got, e_want in zip(got, expect):
                np.testing.assert_array_equal(e_got.h_key, e_want.h_key)

    @pytest.mark.parametrize("chunk", [1, 3, 5, 30])
    def test_ring_wraps_like_a_fifo_for_any_chunking(self, chunk):
        # The same 30 keys pushed in chunks of any size leave every class
        # buffer holding that class's newest 4 keys, oldest first.
        rng = np.random.default_rng(7)
        pushed = [entry(int(rng.integers(2)), seed=100 + i) for i in range(30)]
        pool = MocoQueues(class_count=2, queue_size=4)
        for lo in range(0, len(pushed), chunk):
            pool.enqueue(*rows(pushed[lo:lo + chunk]))
        for c in range(2):
            expect = [e.z_key for e in pushed if e.label == c][-4:]
            np.testing.assert_array_equal([e.z_key for e in pool.entries(c)], expect)

    def test_label_out_of_range(self):
        pool = MocoQueues(class_count=2, queue_size=2)
        with pytest.raises(IndexError):
            pool.enqueue(*rows([entry(5, seed=0)]))

    def test_forced_replacement_single_entry(self):
        pool = MocoQueues(class_count=1, queue_size=4)
        e = entry(0, seed=7)
        pool.enqueue(*rows([e]))
        q = entry(0, seed=8)
        batch = pool.sample(2, *rows([q]), rng=np.random.default_rng(0))
        assert batch.labels.tolist() == [[0, 0, 0]]
        np.testing.assert_array_equal(batch.h_keys[0, 0], q.h_key)
        np.testing.assert_array_equal(batch.h_keys[0, 1], e.h_key)
        np.testing.assert_array_equal(batch.h_keys[0, 2], e.h_key)

    def test_bank_dimension_arithmetic(self):
        pool = MocoQueues(class_count=3, queue_size=4)
        for c in range(3):
            pool.enqueue(*rows([entry(c, seed=10 + c), entry(c, seed=20 + c)]))
        batch = pool.sample(2, *rows([entry(1, seed=30)]), rng=np.random.default_rng(1))
        assert batch.size == 6  # keys_per_class x non-empty classes
        assert batch.h_keys.shape == (1, 7, 3)
        assert batch.z_keys.shape == (1, 7, 2)
        assert batch.labels[0, 0] == 1

    def test_seeded_sampling_replays(self):
        pool = MocoQueues(class_count=2, queue_size=8)
        for i in range(10):
            pool.enqueue(*rows([entry(i % 2, seed=i)]))
        q = rows([entry(0, seed=99)])
        b1 = pool.sample(3, *q, rng=np.random.default_rng(123))
        b2 = pool.sample(3, *q, rng=np.random.default_rng(123))
        np.testing.assert_array_equal(b1.h_keys, b2.h_keys)
        np.testing.assert_array_equal(b1.labels, b2.labels)

    def test_draw_order_matches_per_query_per_class_replay(self):
        # The stream of one rng.integers call per (query, non-empty class):
        # queries in batch order, classes ascending, positions counted
        # oldest first; the generator must end in the replay's state.
        pool = MocoQueues(class_count=4, queue_size=3)
        pool.enqueue(*rows([entry(c, seed=50 + i) for i, c in enumerate([0, 2, 2, 0, 3, 2, 0, 0, 2])]))
        queries = [entry(c, seed=90 + c) for c in (2, 0, 3)]
        pool_rng = np.random.default_rng(11)
        batch = pool.sample(2, *rows(queries), rng=pool_rng)
        rng = np.random.default_rng(11)
        for i, q in enumerate(queries):
            want_h, want_labels = [q.h_key], [q.label]
            for c in range(4):
                buf = pool.entries(c)
                if not buf:
                    continue
                for j in rng.integers(0, len(buf), size=2):
                    want_h.append(buf[int(j)].h_key)
                    want_labels.append(c)
            np.testing.assert_array_equal(batch.h_keys[i], want_h)
            assert batch.labels[i].tolist() == want_labels
        assert pool_rng.bit_generator.state == rng.bit_generator.state

    def test_empty_pool_rejected(self):
        pool = MocoQueues(class_count=2, queue_size=2)
        with pytest.raises(EmptyPoolError):
            pool.sample(1, *rows([entry(0, seed=0)]), rng=np.random.default_rng(0))

    def test_positive_set_never_empty(self):
        pool = MocoQueues(class_count=2, queue_size=2)
        pool.enqueue(*rows([entry(1, seed=0)]))  # no keys of class 0 present
        batch = pool.sample(2, *rows([entry(0, seed=1)]), rng=np.random.default_rng(0))
        mask = batch.positive_mask(np.array([0]))
        assert mask[0, 0]
        assert mask.sum() >= 1


def _draw_oracle(rng, queries, sizes, per_class):
    """The stream contract spelled out: one rng.integers call per (query, class), in order."""
    out = np.empty((queries, len(sizes), per_class), dtype=np.int64)
    for i in range(queries):
        for j, n in enumerate(sizes):
            out[i, j] = rng.integers(0, n, size=per_class)
    return out


def test_draw_is_the_per_query_per_class_stream():
    # The broadcast draw must give the oracle's picks and leave the generator
    # in the oracle's state, so every later draw matches too. Cases cover one
    # class, one key per class, size-1 classes, sizes past 2**32, and a
    # generator holding a buffered 32-bit half-word from an earlier draw.
    meta = np.random.default_rng(2024)
    for case in range(400):
        queries = int(meta.integers(1, 9))
        classes = 1 if case % 5 == 0 else int(meta.integers(1, 7))
        per_class = 1 if case % 3 == 0 else int(meta.integers(1, 9))
        top = int(meta.choice([2, 3, 17, 1000, 2**31, 2**32 + 3, 2**40, 2**62]))
        sizes = meta.integers(1, top, size=classes, endpoint=True)
        if case % 7 == 0:
            sizes[0] = 1
        seed, warm = int(meta.integers(2**32)), int(meta.integers(0, 3))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for r in (got_rng, want_rng):
            r.integers(0, 5, size=warm)
        got = _draw(got_rng, queries, sizes, per_class)
        want = _draw_oracle(want_rng, queries, sizes.tolist(), per_class)
        np.testing.assert_array_equal(got, want, err_msg=f"case {case}: sizes {sizes.tolist()}")
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, f"case {case}"


class TestMemoryBank:
    def make_bank(self, n=6, d=3, L=2, m=0.5, uniform=False):
        labels = np.arange(n) % 3
        bank = MemoryBank(labels, m_bank=m, uniform=uniform)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(n, d))
        z = rng.normal(size=(n, L))
        bank.initialize(h, z)
        return bank

    def test_snapshot_count_and_norms(self):
        bank = self.make_bank()
        assert len(bank) == 6
        np.testing.assert_allclose(np.linalg.norm(bank.h_snap, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(bank.z_snap, axis=1), 1.0, atol=1e-12)

    def test_update_m0_replaces(self):
        bank = self.make_bank(m=0.0)
        new_h = unit([1.0, 0.0, 0.0])[None, :]
        new_z = unit([0.0, 1.0])[None, :]
        bank.update(np.array([2]), new_h, new_z)
        np.testing.assert_allclose(bank.h_snap[2], new_h[0], atol=1e-12)
        np.testing.assert_allclose(bank.z_snap[2], new_z[0], atol=1e-12)

    def test_update_m1_frozen(self):
        bank = self.make_bank(m=1.0)
        before = bank.h_snap[3].copy()
        bank.update(np.array([3]), unit([1, 1, 1])[None, :], unit([1, 1])[None, :])
        np.testing.assert_array_equal(bank.h_snap[3], before)

    def test_hand_mix_and_renormalize(self):
        labels = np.array([0])
        bank = MemoryBank(labels, m_bank=0.5)
        bank.initialize(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        bank.update(np.array([0]), np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]))
        expect = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        np.testing.assert_allclose(bank.h_snap[0], expect, atol=1e-12)
        np.testing.assert_allclose(bank.z_snap[0], expect, atol=1e-12)

    def test_update_out_of_range(self):
        bank = self.make_bank()
        with pytest.raises(IndexError):
            bank.update(np.array([17]), unit([1, 0, 0])[None, :], unit([1, 0])[None, :])

    def test_uninitialized_bank_rejected(self):
        bank = MemoryBank(np.array([0, 1]), m_bank=0.5)
        with pytest.raises(EmptyPoolError):
            bank.sample(1, *rows([entry(0, seed=0)]), rng=np.random.default_rng(0))

    def test_entry_returns_copies_with_labels(self):
        bank = self.make_bank()
        h, z, labels = bank.entry(np.array([4, 1]))
        np.testing.assert_array_equal(h, bank.h_snap[[4, 1]])
        np.testing.assert_array_equal(z, bank.z_snap[[4, 1]])
        assert labels.tolist() == [1, 1]
        h[:] = 0.0
        assert np.all(bank.h_snap[[4, 1]] != 0.0)

    def test_single_item_per_class_is_deterministic(self):
        labels = np.array([0, 1, 2])
        bank = MemoryBank(labels, m_bank=0.5)
        rng = np.random.default_rng(1)
        bank.initialize(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
        batch = bank.sample(1, *rows([entry(0, seed=5)]), rng=np.random.default_rng(9))
        assert batch.labels.tolist() == [[0, 0, 1, 2]]
        np.testing.assert_allclose(batch.h_keys[0, 1], bank.h_snap[0], atol=0)

    def test_seeded_sampling_replays(self):
        bank = self.make_bank(n=12)
        q = rows([entry(1, seed=3)])
        b1 = bank.sample(2, *q, rng=np.random.default_rng(77))
        b2 = bank.sample(2, *q, rng=np.random.default_rng(77))
        np.testing.assert_array_equal(b1.h_keys, b2.h_keys)
        np.testing.assert_array_equal(b1.labels, b2.labels)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_draw_order_matches_per_query_replay(self, uniform):
        # Balanced: the stream of one call per (query, class), classes
        # ascending. Uniform: of one call per query over every snapshot.
        # Either way the generator must end in the replay's state.
        bank = self.make_bank(n=12, uniform=uniform)
        queries = rows([entry(c, seed=60 + c) for c in (2, 0, 1, 1)])
        bank_rng = np.random.default_rng(13)
        batch = bank.sample(2, *queries, rng=bank_rng)
        rng = np.random.default_rng(13)
        for i in range(4):
            if uniform:
                ids = rng.integers(0, 12, size=6)
            else:
                ids = np.concatenate([np.flatnonzero(bank.labels == c)[rng.integers(0, 4, size=2)] for c in range(3)])
            np.testing.assert_array_equal(batch.h_keys[i, 1:], bank.h_snap[ids])
            np.testing.assert_array_equal(batch.z_keys[i, 1:], bank.z_snap[ids])
            np.testing.assert_array_equal(batch.labels[i, 1:], bank.labels[ids])
        assert bank_rng.bit_generator.state == rng.bit_generator.state

    def test_balanced_label_histogram(self):
        bank = self.make_bank(n=12)
        batch = bank.sample(4, *rows([entry(0, seed=2)]), rng=np.random.default_rng(5))
        counts = np.bincount(batch.labels[0, 1:], minlength=3)
        np.testing.assert_array_equal(counts, [4, 4, 4])

    def test_uniform_mode_keeps_size(self):
        bank = self.make_bank(n=12, uniform=True)
        batch = bank.sample(4, *rows([entry(0, seed=2)]), rng=np.random.default_rng(5))
        assert batch.size == 12  # 4 per class x 3 classes, drawn globally


class TestUnitNormChecks:
    """Every block of keys entering or leaving a pool is checked at once."""

    def test_enqueue_rejects_a_non_unit_row(self):
        pool = MocoQueues(class_count=2, queue_size=4)
        h, z, labels = rows([entry(0, seed=1), entry(1, seed=2), entry(0, seed=3)])
        h[1] *= 1.001
        with pytest.raises(ValueError, match="unit-norm"):
            pool.enqueue(h, z, labels)
        assert len(pool) == 0

    def test_enqueue_rejects_a_non_finite_row(self):
        pool = MocoQueues(class_count=2, queue_size=4)
        h, z, labels = rows([entry(0, seed=1), entry(1, seed=2)])
        z[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="^row 0 has non-finite norm nan in z_key$"):
            pool.enqueue(h, z, labels)

    def test_initialize_rejects_a_row_that_cannot_be_made_unit(self):
        bank = MemoryBank(np.array([0, 1, 1]), m_bank=0.5)
        h = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        message = "^example 1 has norm 0.000e\\+00 < 5e-324 in h_snapshot$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # checked before any division
            with pytest.raises(DegenerateRowError, match=message):
                bank.initialize(h, np.eye(3)[:, :2] + 0.5)
        assert len(bank) == 0

    @pytest.mark.parametrize("value, shown", [(np.inf, "inf"), (np.nan, "nan")])
    def test_initialize_rejects_a_non_finite_row(self, value, shown):
        bank = MemoryBank(np.array([0, 1, 1]), m_bank=0.5)
        z = np.eye(3)[:, :2] + 0.5
        z[2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^example 2 has non-finite norm {shown} in z_snapshot$"):
                bank.initialize(np.eye(3)[:, :2] + 0.5, z)
        assert len(bank) == 0

    def test_update_rejects_a_non_unit_row(self):
        bank = TestMemoryBank().make_bank()
        before = bank.h_snap.copy()
        with pytest.raises(ValueError, match="unit-norm"):
            bank.update(np.array([0, 1]), np.array([unit([1, 0, 0]), [0.0, 2.0, 0.0]]), np.eye(2))
        np.testing.assert_array_equal(bank.h_snap, before)

    @pytest.mark.parametrize("opposite", ["h", "z"])
    def test_update_that_mixes_to_zero_fails_and_writes_nothing(self, opposite):
        # With m = 0.5, an update opposite a snapshot mixes that row to zero.
        bank = TestMemoryBank().make_bank()
        before = bank.h_snap.copy(), bank.z_snap.copy()
        ids = np.array([2, 4])
        h_new = -bank.h_snap[ids] if opposite == "h" else bank.h_snap[ids]
        z_new = -bank.z_snap[ids] if opposite == "z" else bank.z_snap[ids]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # checked before any division
            with pytest.raises(DegenerateRowError, match=f"^example 2 has norm 0.000e\\+00 < 1e-12 in {opposite}_snapshot$"):
                bank.update(ids, h_new, z_new)
        np.testing.assert_array_equal(bank.h_snap, before[0])
        np.testing.assert_array_equal(bank.z_snap, before[1])

    def test_a_row_mixed_to_zero_is_a_degenerate_row(self):
        # The numerical error (exit 2) every other degenerate row raises, checked before any division.
        bank = TestMemoryBank().make_bank()
        before = bank.h_snap.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateRowError) as err:
                bank.update(np.array([0, 3]), bank.h_snap[[0, 3]] * [[1.0], [-1.0]], bank.z_snap[[0, 3]])
        assert type(err.value) is DegenerateRowError
        assert str(err.value) == "example 3 has norm 0.000e+00 < 1e-12 in h_snapshot"
        np.testing.assert_array_equal(bank.h_snap, before)

    def test_gathered_sample_rejects_a_non_unit_query_key(self):
        pool = MocoQueues(class_count=1, queue_size=4)
        pool.enqueue(*rows([entry(0, seed=1)]))
        h, z, labels = rows([entry(0, seed=2)])
        with pytest.raises(ValueError, match="unit-norm"):
            pool.sample(1, 2.0 * h, z, labels, rng=np.random.default_rng(0))

    def test_gathered_sample_rejects_a_corrupted_snapshot(self):
        bank = TestMemoryBank().make_bank(n=3)
        bank.z_snap[1] *= 3.0  # every class has one example, so row 1 is drawn
        with pytest.raises(ValueError, match="unit-norm"):
            bank.sample(1, *rows([entry(0, seed=4)]), rng=np.random.default_rng(0))


class TestContractParity:
    def test_same_batch_shape_and_guarantees(self):
        d, L = 3, 2
        pool = MocoQueues(class_count=2, queue_size=4)
        labels = np.array([0, 0, 1, 1])
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, d))
        z = rng.normal(size=(4, L))
        bank = MemoryBank(labels, m_bank=0.5)
        bank.initialize(h, z)
        hn = h / np.linalg.norm(h, axis=1, keepdims=True)
        zn = z / np.linalg.norm(z, axis=1, keepdims=True)
        pool.enqueue(hn, zn, labels)
        q = rows([entry(1, seed=4)])
        for batch in (
            pool.sample(2, *q, rng=np.random.default_rng(3)),
            bank.sample(2, *q, rng=np.random.default_rng(3)),
        ):
            assert batch.h_keys.shape == (1, 5, d)
            assert batch.z_keys.shape == (1, 5, L)
            assert batch.labels.shape == (1, 5)
            assert batch.labels[0, 0] == 1
            assert isinstance(batch.h_keys, np.ndarray) and isinstance(batch.z_keys, np.ndarray)
            np.testing.assert_allclose(np.linalg.norm(batch.h_keys, axis=2), 1.0, atol=1e-9)

    def test_one_sample_signature(self):
        assert inspect.signature(MocoQueues.sample) == inspect.signature(MemoryBank.sample)


def wide_rows(rng):
    """Random rows, each scaled to its own magnitude between 1e-100 and 1e100."""
    n, d = (int(v) for v in rng.integers(1, 9, size=2))
    return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-100.0, 100.0, size=(n, 1))


class TestNormsAreTheLinalgNorm:
    """Row norms skip np.linalg.norm's Python wrapper; every result must still be its value bit for bit."""

    def test_memory_bank_initialize_and_update(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            h = wide_rows(rng)
            z = rng.normal(size=(h.shape[0], 3)) * 10.0 ** rng.uniform(-100, 100, size=(h.shape[0], 1))
            bank = MemoryBank(np.arange(h.shape[0]) % 2, m_bank=float(rng.uniform()))
            bank.initialize(h, z)
            want_h = h / np.linalg.norm(h, axis=1, keepdims=True)
            want_z = z / np.linalg.norm(z, axis=1, keepdims=True)
            np.testing.assert_array_equal(bank.h_snap, want_h)
            np.testing.assert_array_equal(bank.z_snap, want_z)
            ids = rng.permutation(h.shape[0])[: int(rng.integers(1, h.shape[0] + 1))]
            h_new = rng.normal(size=(ids.size, h.shape[1]))
            z_new = rng.normal(size=(ids.size, 3))
            h_new /= np.linalg.norm(h_new, axis=1, keepdims=True)
            z_new /= np.linalg.norm(z_new, axis=1, keepdims=True)
            bank.update(ids, h_new, z_new)
            m = bank.m_bank
            for snap, old, new in ((bank.h_snap, want_h, h_new), (bank.z_snap, want_z, z_new)):
                mixed = m * old[ids] + (1.0 - m) * new
                np.testing.assert_array_equal(snap[ids], mixed / np.linalg.norm(mixed, axis=1, keepdims=True))

    def test_unit_check_reports_the_linalg_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            b, k, d = (int(v) for v in rng.integers(1, 6, size=3))
            keys = rng.normal(size=(b, k, d))
            keys /= np.linalg.norm(keys, axis=-1, keepdims=True)
            i, j = int(rng.integers(b)), int(rng.integers(k))
            keys[i, j] *= 1.0 + 10.0 ** rng.uniform(-8, 0)
            with pytest.raises(ValueError) as err:
                _check_unit(h_keys=keys)
            # The axis form: np.linalg.norm of a lone 1-D vector takes a dot product instead.
            assert str(err.value).endswith(f"|v|={float(np.linalg.norm(keys, axis=-1)[i, j])!r}")


def random_keys(rng, n, d, L, class_count):
    h, z = rng.normal(size=(n, d)), rng.normal(size=(n, L))
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return h, z, rng.integers(0, class_count, size=n)


def twin_generators(meta):
    seed = int(meta.integers(2**32))
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_batch(got, want):
    for part in ("h_keys", "z_keys", "labels"):
        np.testing.assert_array_equal(getattr(got, part), getattr(want, part), err_msg=part)


class TestSegmentsMatchTheEarlierForms:
    """Both generators against the code their per-class segments replaced (tests/unfused.py), compared with ==."""

    def test_queues_match_the_ring_buffers(self):
        # Random chunkings, chunks past Q, one class and Q = 1: the same keys, the same
        # draws and the same generator state after every chunk.
        meta = np.random.default_rng(15)
        for case in range(150):
            classes = 1 if case % 4 == 0 else int(meta.integers(2, 5))
            q = 1 if case % 5 == 0 else int(meta.integers(1, 7))
            d, L = (int(v) for v in meta.integers(1, 5, size=2))
            fifo, ring = MocoQueues(classes, q), RingQueues(classes, q)
            for _ in range(int(meta.integers(1, 8))):
                chunk = random_keys(meta, int(meta.integers(1, 2 * q + 4)), d, L, classes)
                fifo.enqueue(*chunk)
                ring.enqueue(*chunk)
                assert len(fifo) == len(ring)
                for c in range(classes):
                    got, want = fifo.entries(c), ring.entries(c)
                    assert len(got) == len(want), (case, c)
                    for e_got, e_want in zip(got, want):
                        assert e_got.label == e_want.label
                        np.testing.assert_array_equal(e_got.h_key, e_want.h_key)
                        np.testing.assert_array_equal(e_got.z_key, e_want.z_key)
                queries, k = random_keys(meta, int(meta.integers(1, 6)), d, L, classes), int(meta.integers(1, 4))
                got_rng, want_rng = twin_generators(meta)
                assert_same_batch(fifo.sample(k, *queries, got_rng), ring.sample(k, *queries, want_rng))
                assert got_rng.bit_generator.state == want_rng.bit_generator.state, case

    @pytest.mark.parametrize("uniform", [False, True])
    def test_bank_matches_the_per_class_gather(self, uniform):
        # Labels in any order, absent classes and one-class banks included.
        meta = np.random.default_rng(16 + uniform)
        for case in range(150):
            n = int(meta.integers(1, 30))
            labels = meta.choice(meta.integers(0, 5, size=1 if case % 4 == 0 else 3), size=n)
            bank = MemoryBank(labels, m_bank=0.5, uniform=uniform)
            bank.initialize(meta.normal(size=(n, 3)), meta.normal(size=(n, 2)))
            queries, k = random_keys(meta, int(meta.integers(1, 6)), 3, 2, 5), int(meta.integers(1, 4))
            got_rng, want_rng = twin_generators(meta)
            got = bank.sample(k, *queries, got_rng)
            assert_same_batch(got, per_class_bank_sample(bank, k, *queries, want_rng, uniform=uniform))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, case
