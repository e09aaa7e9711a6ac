"""Generators, loader error contracts, splits, and subsampling rules."""

import math

import numpy as np
import pytest

from dualhead.data import (
    DataError,
    Dataset,
    NonIntegerLabelError,
    NonNumericCellError,
    RaggedRowError,
    UnreadableFileError,
    load_delimited,
    make_blobs,
    make_rings,
    split_stratified,
    subsample_per_class,
)


def least_squares_probe(train, test):
    """Closed-form linear probe: one-vs-all ridge-free least squares."""
    X = np.hstack([train.features, np.ones((len(train), 1))])
    Y = np.eye(train.class_count)[train.labels]
    w, *_ = np.linalg.lstsq(X, Y, rcond=None)
    Xt = np.hstack([test.features, np.ones((len(test), 1))])
    pred = np.argmax(Xt @ w, axis=1)
    return float(np.mean(pred == test.labels))


class TestMakeBlobs:
    def test_zero_noise_collapses_to_means(self):
        ds = make_blobs(3, 5, dim=4, separation=2.0, noise=0.0, seed=0)
        for c in range(3):
            block = ds.features[ds.labels == c]
            np.testing.assert_allclose(block, np.tile(block[0], (len(block), 1)), atol=1e-12)

    @pytest.mark.parametrize("c,dim", [(3, 4), (3, 2), (4, 3)])
    def test_means_are_equidistant(self, c, dim):
        ds = make_blobs(c, 1, dim=dim, separation=3.0, noise=0.0, seed=1)
        means = ds.features
        for i in range(c):
            for j in range(i + 1, c):
                assert abs(np.linalg.norm(means[i] - means[j]) - 3.0) <= 1e-9

    def test_linear_probe_solves_separated_blobs(self):
        ds = make_blobs(2, 50, dim=3, separation=10.0, noise=0.5, seed=2)
        assert least_squares_probe(ds, ds) == 1.0

    def test_seed_determinism(self):
        a = make_blobs(3, 7, dim=4, separation=2.0, noise=1.0, seed=3)
        b = make_blobs(3, 7, dim=4, separation=2.0, noise=1.0, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_dimension_too_small(self):
        with pytest.raises(DataError):
            make_blobs(4, 3, dim=2, separation=1.0, noise=0.1, seed=0)

    def test_invalid_sizes(self):
        with pytest.raises(DataError):
            make_blobs(1, 5, dim=3, separation=1.0, noise=0.1, seed=0)


class TestMakeRings:
    def test_zero_noise_exact_radii(self):
        ds = make_rings(3, 20, noise=0.0, seed=4)
        radii = np.linalg.norm(ds.features, axis=1)
        np.testing.assert_allclose(radii, ds.labels + 1.0, atol=1e-12)

    def test_linear_probe_near_chance_mlp_succeeds(self):
        from dualhead.config import RunConfig, validate_config
        from dualhead.trainer import fit

        ds = make_rings(2, 80, noise=0.05, seed=5)
        assert least_squares_probe(ds, ds) <= 0.65

        cfg = RunConfig()
        cfg.seed = 0
        cfg.dataset.kind = "rings"
        cfg.dataset.classes = 2
        cfg.dataset.per_class = 80
        cfg.dataset.noise = 0.05
        cfg.dataset.seed = 5
        cfg.model.hidden = (64,)
        cfg.model.feature_dim = 16
        cfg.model.projector_dim = 8
        cfg.losses.ce, cfg.losses.cce, cfg.losses.ccl = (1.0, 0.0, 0.0)
        cfg.losses.reduction = "mean"
        cfg.optimizer.iterations = 800
        cfg.optimizer.batch_size = 16
        cfg.optimizer.base_lr = 0.01
        cfg.optimizer.weight_decay = 1e-3
        run = fit(validate_config(cfg))
        assert run.best_val_acc >= 0.95

    def test_seed_determinism(self):
        a = make_rings(2, 9, noise=0.2, seed=6)
        b = make_rings(2, 9, noise=0.2, seed=6)
        np.testing.assert_array_equal(a.features, b.features)


class TestLoadDelimited:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_hand_written_file(self, tmp_path):
        path = self.write(tmp_path, "1.5,2.5,0\n-1.0,0.25,1\n3.0,4.0,0\n")
        ds = load_delimited(path, label_column=2)
        np.testing.assert_array_equal(ds.features, [[1.5, 2.5], [-1.0, 0.25], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.class_count == 2

    def test_dense_reindexing_by_first_appearance(self, tmp_path):
        path = self.write(tmp_path, "0.0,5\n1.0,9\n2.0,5\n")
        ds = load_delimited(path, label_column=1)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.class_count == 2

    def test_ragged_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "1,2,0\n1,2\n")
        with pytest.raises(RaggedRowError, match=":2:"):
            load_delimited(path, label_column=2)

    def test_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "1,abc,0\n")
        with pytest.raises(NonNumericCellError, match="abc"):
            load_delimited(path, label_column=2)

    def test_non_integer_label(self, tmp_path):
        path = self.write(tmp_path, "1,2,0.5\n")
        with pytest.raises(NonIntegerLabelError):
            load_delimited(path, label_column=2)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            load_delimited(str(tmp_path / "missing.csv"))

    def test_header_and_delimiter(self, tmp_path):
        path = self.write(tmp_path, "a;b;y\n1;2;0\n3;4;1\n")
        ds = load_delimited(path, delimiter=";", label_column=2, has_header=True)
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


class TestSubsamplePerClass:
    def test_rate_one_is_identity(self):
        ds = make_blobs(3, 8, dim=4, separation=2.0, noise=1.0, seed=7)
        sub = subsample_per_class(ds, 1.0, seed=0)
        np.testing.assert_array_equal(sub.features, ds.features)
        np.testing.assert_array_equal(sub.labels, ds.labels)

    def test_ceiling_rule_small_class(self):
        ds = make_blobs(2, 4, dim=3, separation=2.0, noise=1.0, seed=8)
        sub = subsample_per_class(ds, 0.25, seed=1)
        counts = np.bincount(sub.labels, minlength=2)
        np.testing.assert_array_equal(counts, [1, 1])

    @pytest.mark.parametrize("seed", range(25))
    def test_counting_audit(self, seed):
        rng = np.random.default_rng(seed)
        per_class = int(rng.integers(3, 30))
        rate = float(rng.uniform(0.05, 1.0))
        ds = make_blobs(3, per_class, dim=4, separation=2.0, noise=1.0, seed=seed)
        sub = subsample_per_class(ds, rate, seed=seed)
        counts = np.bincount(sub.labels, minlength=3)
        assert counts.tolist() == [math.ceil(rate * per_class)] * 3

    def test_nested_subsample_counts(self):
        ds = make_blobs(2, 20, dim=3, separation=2.0, noise=1.0, seed=9)
        r1, r2 = 0.6, 0.5
        nested = subsample_per_class(subsample_per_class(ds, r1, seed=0), r2, seed=1)
        expect = math.ceil(r2 * math.ceil(r1 * 20))
        assert np.bincount(nested.labels).tolist() == [expect, expect]

    def test_rate_out_of_range(self):
        ds = make_blobs(2, 4, dim=3, separation=2.0, noise=1.0, seed=10)
        for rate in (0.0, 1.2, -0.5):
            with pytest.raises(DataError):
                subsample_per_class(ds, rate, seed=0)

    def test_determinism(self):
        ds = make_blobs(3, 10, dim=4, separation=2.0, noise=1.0, seed=11)
        a = subsample_per_class(ds, 0.4, seed=5)
        b = subsample_per_class(ds, 0.4, seed=5)
        np.testing.assert_array_equal(a.features, b.features)


class TestSplitStratified:
    def test_per_class_proportions(self):
        ds = make_blobs(3, 10, dim=4, separation=2.0, noise=1.0, seed=12)
        train, val = split_stratified(ds, 0.7, seed=0)
        assert np.bincount(train.labels).tolist() == [7, 7, 7]
        assert np.bincount(val.labels).tolist() == [3, 3, 3]

    def test_every_class_survives_extreme_fractions(self):
        ds = make_blobs(2, 5, dim=3, separation=2.0, noise=1.0, seed=13)
        train, val = split_stratified(ds, 0.05, seed=0)
        assert np.bincount(train.labels, minlength=2).min() >= 1
        assert np.bincount(val.labels, minlength=2).min() >= 1

    def test_full_fraction_self_validates(self):
        ds = make_blobs(2, 4, dim=3, separation=2.0, noise=1.0, seed=14)
        train, val = split_stratified(ds, 1.0, seed=0)
        np.testing.assert_array_equal(train.features, val.features)

    def test_determinism_and_disjointness(self):
        ds = make_blobs(3, 12, dim=4, separation=2.0, noise=1.0, seed=15)
        t1, v1 = split_stratified(ds, 0.5, seed=3)
        t2, v2 = split_stratified(ds, 0.5, seed=3)
        np.testing.assert_array_equal(t1.features, t2.features)
        np.testing.assert_array_equal(v1.features, v2.features)
        train_rows = {tuple(r) for r in t1.features}
        val_rows = {tuple(r) for r in v1.features}
        assert not train_rows & val_rows


class TestDatasetType:
    def test_rejects_bad_labels(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), np.array([0, 5]), class_count=2)

    def test_rejects_non_finite(self):
        feats = np.ones((2, 2))
        feats[0, 0] = np.inf
        with pytest.raises(DataError):
            Dataset(feats, np.array([0, 1]), class_count=2)
