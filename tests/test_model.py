"""Network forward paths, momentum twin algebra, checkpoint round-trip."""

import numpy as np
import pytest

import dualhead.model as model_mod
import dualhead.ndgrad as nd
from dualhead.model import (
    ModelDims,
    ModelParams,
    forward_key,
    forward_query,
    init_params,
    init_twin,
    momentum_update,
    parameter_layout,
)
from dualhead.ndgrad import ShapeError, Tensor


def manual_params(weights_scale=0.0, in_dim=3, feature_dim=3, class_count=2, projector_dim=2):
    """Single affine encoder (no hidden layer) with hand-set tensors."""
    dims = ModelDims(in_dim=in_dim, hidden=(), feature_dim=feature_dim,
                     class_count=class_count, projector_dim=projector_dim)
    params = ModelParams(dims)
    params.encoder_layers[0][0].data[:] = weights_scale
    params.classifier_W.data[:] = np.arange(class_count * feature_dim, dtype=float).reshape(class_count, feature_dim) + 1.0
    params.projector_w.data[:] = 1.0
    params.projector_b.data[:] = 0.5
    return params


def random_params(seed=0, **kw):
    dims = ModelDims(in_dim=kw.get("in_dim", 3), hidden=kw.get("hidden", (5,)),
                     feature_dim=kw.get("feature_dim", 4), class_count=kw.get("class_count", 3),
                     projector_dim=kw.get("projector_dim", 4))
    return init_params(dims, np.random.default_rng(seed), classifier_bias=kw.get("classifier_bias", False))


def assert_views_of_flat(params):
    """Every tensor is a view of the one C-contiguous float64 vector, at its layout span."""
    flat = params.flat
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    spans = list(params.slices.values())
    assert spans[0].start == 0 and spans[-1].stop == flat.size
    assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
    for name, t in params.named_parameters():
        assert t.data.base is flat and t.data.flags.c_contiguous, name
        assert np.shares_memory(t.data, flat[params.slices[name]]), name
        np.testing.assert_array_equal(t.data.ravel(), flat[params.slices[name]])


class TestFlatLayout:
    def test_layout_names_shapes_and_order(self):
        dims = ModelDims(in_dim=3, hidden=(5, 4), feature_dim=6, class_count=2, projector_dim=7)
        layout = parameter_layout(dims, classifier_bias=True)
        assert [(name, shape) for name, shape, _ in layout] == [
            ("encoder.0.weight", (3, 5)), ("encoder.0.bias", (5,)),
            ("encoder.1.weight", (5, 4)), ("encoder.1.bias", (4,)),
            ("encoder.2.weight", (4, 6)), ("encoder.2.bias", (6,)),
            ("classifier.weight", (2, 6)), ("classifier.bias", (2,)),
            ("projector.weight", (6, 7)), ("projector.bias", (7,)),
        ]
        assert [name for name, _, _ in parameter_layout(dims)] == [n for n, _, _ in layout if n != "classifier.bias"]

    def test_init_draws_are_the_per_tensor_sequence(self):
        # The draw order of the per-tensor initialization the layout replaced, as an oracle.
        dims = ModelDims(in_dim=3, hidden=(5, 4), feature_dim=6, class_count=2, projector_dim=7)
        params = init_params(dims, np.random.default_rng(3), classifier_bias=True)
        rng = np.random.default_rng(3)
        sizes = [3, 5, 4, 6]
        for (w, b), fan_in, fan_out in zip(params.encoder_layers, sizes[:-1], sizes[1:]):
            np.testing.assert_array_equal(w.data, rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
            np.testing.assert_array_equal(b.data, rng.normal(0.0, 0.1, size=fan_out))
        np.testing.assert_array_equal(params.classifier_W.data, rng.normal(0.0, 1.0 / np.sqrt(6), size=(2, 6)))
        np.testing.assert_array_equal(params.classifier_b.data, np.zeros(2))
        np.testing.assert_array_equal(params.projector_w.data, rng.normal(0.0, 1.0 / np.sqrt(6), size=(6, 7)))
        np.testing.assert_array_equal(params.projector_b.data, rng.normal(0.0, 0.1, size=7))

    @pytest.mark.parametrize("classifier_bias", [False, True])
    def test_params_and_twin_view_their_vectors(self, classifier_bias):
        params = random_params(20, classifier_bias=classifier_bias)
        twin = init_twin(params, 0.9)
        assert_views_of_flat(params)
        assert_views_of_flat(twin)
        assert not np.shares_memory(twin.flat, params.flat)
        np.testing.assert_array_equal(twin.flat, params.flat)
        assert all(not t.grad_enabled for _, t in twin.named_parameters())
        assert all(t.grad_enabled for _, t in params.named_parameters())

    def test_loaded_checkpoint_views_its_vector(self, tmp_path):
        path = tmp_path / "ckpt.json"
        model_mod.save_checkpoint(random_params(21, classifier_bias=True), str(path))
        assert_views_of_flat(model_mod.load_checkpoint(str(path)))

    @pytest.mark.parametrize("m", [0.999, 0.9, 0.5, 0.0, 1.0])
    def test_vector_update_is_bitwise_the_per_tensor_mix(self, m):
        rng = np.random.default_rng(22)
        params = random_params(22, classifier_bias=True)
        twin = init_twin(params, m)
        expect = {name: t.data.copy() for name, t in twin.named_parameters()}
        for _ in range(5):
            params.flat += rng.normal(size=params.flat.size)
            momentum_update(twin, params)
            for name, tq in params.named_parameters():
                expect[name] *= m
                expect[name] += (1.0 - m) * tq.data
        for name, tk in twin.named_parameters():
            np.testing.assert_array_equal(tk.data, expect[name])
        assert_views_of_flat(twin)

    def test_update_rejects_another_layout(self):
        twin = init_twin(random_params(23), 0.9)
        with pytest.raises(ShapeError):
            momentum_update(twin, random_params(23, classifier_bias=True))


class TestForwardQuery:
    def test_zero_weight_network_replicates_bias(self):
        params = manual_params(weights_scale=0.0)
        params.encoder_layers[0][1].data[:] = [1.0, 2.0, 3.0]
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        h, _, logits = forward_query(params, x)
        np.testing.assert_allclose(h.data, np.tile([1.0, 2.0, 3.0], (4, 1)), atol=0)
        np.testing.assert_allclose(logits.data, h.data @ params.classifier_W.data.T, atol=0)

    def test_identity_encoder_passes_one_hot_through(self):
        params = manual_params()
        params.encoder_layers[0][0].data[:] = np.eye(3)
        x = Tensor([[0.0, 1.0, 0.0]])
        h, _, _ = forward_query(params, x)
        np.testing.assert_array_equal(h.data, [[0.0, 1.0, 0.0]])

    def test_projection_rows_are_unit(self):
        params = random_params(3)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
        _, z, _ = forward_query(params, x)
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-12)

    def test_logits_affine_in_classifier(self):
        params = random_params(4)
        x = Tensor(np.random.default_rng(2).normal(size=(3, 3)))
        _, _, logits = forward_query(params, x)
        params.classifier_W.data *= 2.0
        _, _, doubled = forward_query(params, x)
        np.testing.assert_allclose(doubled.data, 2.0 * logits.data, rtol=0, atol=0)

    def test_input_dim_checked(self):
        with pytest.raises(ShapeError):
            forward_query(random_params(), Tensor(np.ones((2, 7))))

    def test_classifier_bias_option(self):
        params = random_params(5, classifier_bias=True)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3)))
        _, _, logits = forward_query(params, x)
        params.classifier_b.data += 1.0
        _, _, shifted = forward_query(params, x)
        np.testing.assert_allclose(shifted.data, logits.data + 1.0, atol=1e-12)


class TestForwardKey:
    def test_matches_query_path_after_init(self):
        params = random_params(6)
        twin = init_twin(params, 0.999)
        x = Tensor(np.random.default_rng(4).normal(size=(3, 3)))
        h_q, z_q, _ = forward_query(params, x)
        h_k, z_k = forward_key(twin, x)
        h_q_norm = h_q.data / np.linalg.norm(h_q.data, axis=1, keepdims=True)
        np.testing.assert_allclose(h_k, h_q_norm, atol=1e-12)
        np.testing.assert_allclose(z_k, z_q.data, atol=1e-12)

    def test_frozen_twin_outputs_unchanged(self):
        params = random_params(7)
        twin = init_twin(params, 1.0)
        x = Tensor(np.random.default_rng(5).normal(size=(2, 3)))
        before = [a.copy() for a in forward_key(twin, x)]
        params.classifier_W.data += 5.0
        for w, _ in params.encoder_layers:
            w.data += 1.0
        momentum_update(twin, params)
        after = forward_key(twin, x)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    def test_key_rows_are_unit(self):
        params = random_params(8)
        twin = init_twin(params, 0.999)
        h_k, z_k = forward_key(twin, Tensor(np.random.default_rng(6).normal(size=(4, 3))))
        np.testing.assert_allclose(np.linalg.norm(h_k, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(z_k, axis=1), 1.0, atol=1e-12)

    def test_no_gradient_reaches_any_parameter(self):
        params = random_params(9)
        twin = init_twin(params, 0.9)
        x = Tensor(np.random.default_rng(7).normal(size=(2, 3)))
        h_k, z_k = forward_key(twin, x)
        assert isinstance(h_k, np.ndarray) and isinstance(z_k, np.ndarray)  # keys leave the tape as arrays
        h_k, z_k = Tensor(h_k), Tensor(z_k)
        loss = nd.add(nd.sum(nd.mul(h_k, h_k)), nd.sum(nd.mul(z_k, z_k)))
        loss.backward()
        for name, t in params.named_parameters():
            assert t.grad is None, name
        for wk, bk in twin.encoder_layers:
            assert wk.grad is None and bk.grad is None


class TestMomentumTwin:
    @pytest.mark.parametrize("m", [0.999, 0.5])
    def test_reference_momenta_accepted(self, m):
        assert init_twin(random_params(), m).m == m

    @pytest.mark.parametrize("m", [-0.1, 1.0001])
    def test_momentum_out_of_range(self, m):
        with pytest.raises(ValueError):
            init_twin(random_params(), m)

    def test_deep_copy_independence(self):
        params = random_params(10)
        twin = init_twin(params, 0.999)
        snapshot = twin.encoder_layers[0][0].data.copy()
        params.encoder_layers[0][0].data += 100.0
        np.testing.assert_array_equal(twin.encoder_layers[0][0].data, snapshot)

    def test_update_m0_copies_live(self):
        params = random_params(11)
        twin = init_twin(params, 0.0)
        params.projector_w.data += 2.0
        momentum_update(twin, params)
        np.testing.assert_array_equal(twin.projector_w.data, params.projector_w.data)

    def test_update_m1_frozen(self):
        params = random_params(12)
        twin = init_twin(params, 1.0)
        before = twin.projector_w.data.copy()
        params.projector_w.data += 2.0
        momentum_update(twin, params)
        np.testing.assert_array_equal(twin.projector_w.data, before)

    def test_hand_arithmetic(self):
        params = random_params(13)
        twin = init_twin(params, 0.999)
        twin.projector_w.data[:] = 2.0
        params.projector_w.data[:] = 4.0
        momentum_update(twin, params)
        np.testing.assert_allclose(twin.projector_w.data, 2.002, atol=1e-12)

    @pytest.mark.parametrize("m", [0.999, 0.9, 0.5])
    def test_geometric_closed_form(self, m):
        params = random_params(14)
        twin = init_twin(params, m)
        theta0 = {name: t.data.copy() for (name, t) in zip(("pw", "pb"), (twin.projector_w, twin.projector_b))}
        for n in range(1, 11):
            momentum_update(twin, params)
            for name, tk, tq in (("pw", twin.projector_w, params.projector_w), ("pb", twin.projector_b, params.projector_b)):
                expect = m**n * theta0[name] + (1 - m**n) * tq.data
                np.testing.assert_allclose(tk.data, expect, atol=1e-10)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        params = random_params(15, classifier_bias=True)
        path = tmp_path / "ckpt.json"
        model_mod.save_checkpoint(params, str(path))
        loaded = model_mod.load_checkpoint(str(path))
        for (name_a, a), (name_b, b) in zip(params.named_parameters(), loaded.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(a.data, b.data)
        assert loaded.dims == params.dims

    def test_round_trip_preserves_predictions(self, tmp_path):
        params = random_params(16)
        path = tmp_path / "ckpt.json"
        model_mod.save_checkpoint(params, str(path))
        loaded = model_mod.load_checkpoint(str(path))
        x = Tensor(np.random.default_rng(8).normal(size=(5, 3)))
        logits = [forward_query(p, x, project=False)[2].data for p in (params, loaded)]
        np.testing.assert_array_equal(*logits)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            model_mod.load_checkpoint(str(path))
