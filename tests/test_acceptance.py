"""Acceptance suite: one test per criterion, each printing a PASS line.

Run visibly with:  pytest tests/test_acceptance.py -s

Training-based criteria use frozen desk-scale configs (fixed dataset
seeds, fixed run seeds) so every number below is reproducible bit for
bit on the same platform.
"""

import math
import time

import numpy as np

import dualhead.trainer as trainer_mod
from dualhead.cli import _fit_many, main
from dualhead.config import RunConfig, validate_config
from dualhead.gradcheck import run_gradcheck
from dualhead.keypool import KeyBatch, MemoryBank, MocoQueues
from dualhead.losses import ccl, ce, cce, info_nce
from dualhead.model import ModelDims, init_params, init_twin, momentum_update
from dualhead.ndgrad import Tensor
from step_states import queue_entries


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_batch(h_rows, z_rows, labels):
    """The keys of one query: a KeyBatch with B = 1."""
    return KeyBatch(
        h_keys=np.asarray(h_rows, dtype=float)[None],
        z_keys=np.asarray(z_rows, dtype=float)[None],
        labels=np.asarray(labels, dtype=np.int64)[None],
    )


def np_log_softmax(row):
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def rings_cfg(weights, seed, rate=0.25, iterations=1000):
    cfg = RunConfig()
    cfg.seed = seed
    cfg.dataset.kind = "rings"
    cfg.dataset.classes = 3
    cfg.dataset.per_class = 60
    cfg.dataset.noise = 0.1
    cfg.dataset.seed = 11
    cfg.dataset.sampling_rate = rate
    cfg.model.hidden = (32,)
    cfg.model.feature_dim = 16
    cfg.model.projector_dim = 16
    cfg.optimizer.iterations = iterations
    cfg.optimizer.batch_size = 16
    cfg.optimizer.base_lr = 0.003
    cfg.losses.reduction = "mean"
    cfg.losses.ce, cfg.losses.cce, cfg.losses.ccl = weights
    cfg.keys.queue_size = 8
    cfg.keys.keys_per_class = 2
    cfg.keys.momentum = 0.99
    return validate_config(cfg)


def blobs_cfg(weights, seed, generator="moco", iterations=400):
    cfg = RunConfig()
    cfg.seed = seed
    cfg.dataset.kind = "blobs"
    cfg.dataset.classes = 3
    cfg.dataset.per_class = 60
    cfg.dataset.dim = 4
    cfg.dataset.separation = 6.0
    cfg.dataset.noise = 1.0
    cfg.dataset.seed = 7
    cfg.dataset.sampling_rate = 1.0
    cfg.model.hidden = (32,)
    cfg.model.feature_dim = 16
    cfg.model.projector_dim = 16
    cfg.optimizer.iterations = iterations
    cfg.optimizer.batch_size = 16
    cfg.optimizer.base_lr = 0.003
    cfg.optimizer.weight_decay = 1e-3
    cfg.losses.reduction = "mean"
    cfg.losses.ce, cfg.losses.cce, cfg.losses.ccl = weights
    cfg.keys.generator = generator
    cfg.keys.queue_size = 8
    cfg.keys.keys_per_class = 2
    cfg.keys.momentum = 0.99
    return validate_config(cfg)


def test_criterion_1_gradient_correctness():
    """Analytic gradients of every loss match finite differences."""
    started = time.perf_counter()
    report = run_gradcheck(instances=20, base_seed=0)
    elapsed = time.perf_counter() - started
    loss_names = {r.name for r in report.results if r.kind == "loss"}
    assert loss_names == {"ce", "info_nce", "cce_literal", "cce_per_key", "ccl", "joint_total"}
    worst = max(r.max_rel_err for r in report.results)
    assert report.passed, [r.name for r in report.results if not r.passed]
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    print(f"\n[criterion 1] gradient correctness: PASS "
          f"(worst rel err {worst:.2e} over 20 instances, {elapsed:.1f}s)")


def test_criterion_2_closed_form_identities():
    rng = np.random.default_rng(0)

    # InfoNCE under equal similarities -> ln(K+1).
    q = unit_rows(rng, 1, 5)
    batch = make_batch(np.tile(q, (6, 1)), np.tile(q, (6, 1)), [0] * 6)
    assert abs(info_nce(Tensor(q), batch, 3, 0.07).item() - math.log(6)) <= 1e-9

    # CE under uniform logits -> ln C.
    assert abs(ce(Tensor(np.zeros((1, 5))), np.array([4])).item() - math.log(5)) <= 1e-12

    # CCL with a singleton positive set equals InfoNCE.
    keys = unit_rows(rng, 5, 4)
    labels = np.array([0, 1, 2, 1, 2])
    zb = make_batch(unit_rows(rng, 5, 3), keys, labels)
    z = unit_rows(rng, 1, 4)
    lhs = ccl(Tensor(z), np.array([0]), zb, 0.07).item()
    rhs = info_nce(Tensor(z), zb, 0, 0.07).item()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    # Literal CCE equals |S_i| times the per-query log-ratio term.
    d, k = 4, 6
    h = unit_rows(rng, 1, d)
    W = rng.normal(size=(3, d))
    kb_labels = np.array([1, 1, 0, 1, 2, 0, 1])
    hb = make_batch(np.vstack([h, unit_rows(rng, k, d)]), unit_rows(rng, k + 1, 3), kb_labels)
    got = cce(Tensor(h), np.array([1]), Tensor(W), hb, 0.07).item()
    bank = np.vstack([h, hb.h_keys[0, 1:]])
    term = -np_log_softmax((bank @ W[1]) / 0.07)[0]
    expect = int((kb_labels == 1).sum()) * term
    assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))

    # tau -> infinity uniform limits at tau = 1e6 (probe scaled so the
    # O(max|sim|/tau) residual sits below the stated tolerance).
    tau_inf = 1e6
    q01 = 0.1 * unit_rows(rng, 1, 4)
    lab6 = np.array([0, 1, 0, 2, 0, 1])
    big = make_batch(unit_rows(rng, 6, 4), unit_rows(rng, 6, 4), lab6)
    n_pos = int((lab6 == 0).sum())
    assert abs(info_nce(Tensor(q01), big, 0, tau_inf).item() - math.log(6)) <= 1e-6
    assert abs(ccl(Tensor(q01), np.array([0]), big, tau_inf).item() - n_pos * math.log(6)) <= 1e-6
    w01 = 0.1 * unit_rows(rng, 3, 4)
    assert abs(cce(Tensor(q01), np.array([0]), Tensor(w01), big, tau_inf).item() - n_pos * math.log(6)) <= 1e-6

    print("\n[criterion 2] closed-form identities: PASS")


def test_criterion_3_update_rule_algebra():
    # Momentum update matches its geometric closed form for n <= 10.
    dims = ModelDims(in_dim=3, hidden=(4,), feature_dim=5, class_count=3, projector_dim=4)
    params = init_params(dims, np.random.default_rng(1))
    for m in (0.999, 0.9, 0.5):
        twin = init_twin(params, m)
        theta0 = twin.projector_w.data.copy()
        for n in range(1, 11):
            momentum_update(twin, params)
            expect = m**n * theta0 + (1 - m**n) * params.projector_w.data
            np.testing.assert_allclose(twin.projector_w.data, expect, atol=1e-10)

    # Memory-bank mixing + renormalization on the (1,0)/(0,1) case.
    bank = MemoryBank(np.array([0]), m_bank=0.5)
    bank.initialize(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    bank.update(np.array([0]), np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]))
    np.testing.assert_allclose(bank.h_snap[0, 0], [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
    np.testing.assert_allclose(bank.z_snap[0, 0], [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)

    # FIFO eviction and per-class routing by exhaustive replay.
    pool = MocoQueues(class_count=3, queue_size=4)
    rng = np.random.default_rng(2)
    history = []
    for i in range(40):
        label = int(rng.integers(3))
        vec_h = unit_rows(rng, 1, 4)[0]
        vec_z = unit_rows(rng, 1, 3)[0]
        pool.enqueue(vec_h[None], vec_z[None], [label])
        history.append((label, vec_h))
        for c in range(3):
            expect = [h for (lab, h) in history if lab == c][-4:]
            got = queue_entries(pool, c)
            assert len(got) == len(expect)
            for e, h in zip(got, expect):
                np.testing.assert_array_equal(e.h_key, h)

    print("\n[criterion 3] update-rule algebra: PASS")


def test_criterion_4_ablation_direction():
    """Loss-combination table on rings at 25% sampling, 5 seeds.

    Gates: the full three-loss combination must beat plain cross-entropy
    on mean final accuracy, and each combination that extends a CE
    baseline (CE+CCE, CE+CCL) must stay within 2 points of it. The
    CE-free row is reported for completeness and carries no gate: with
    no ``ce`` term nothing holds the prototype row norms together, they
    drift apart, and the largest-norm prototype wins every argmax. It
    stays near a constant predictor from a pre-trained encoder too (see
    "Scale and scope" in README).
    """
    started = time.perf_counter()
    seeds = range(5)
    rows = (
        ("ce", (1, 0, 0)),
        ("ce+cce", (1, 1, 0)),
        ("ce+ccl", (1, 0, 1)),
        ("cce+ccl", (0, 1, 1)),
        ("all", (1, 1, 1)),
    )
    runs = iter(_fit_many([rings_cfg(weights, s) for _, weights in rows for s in seeds]))  # grouped, in input order
    table = {name: float(np.mean([next(runs).final_val_acc for _ in seeds])) for name, _ in rows}
    elapsed = time.perf_counter() - started

    assert table["all"] >= table["ce"], table
    assert table["ce+cce"] >= table["ce"] - 0.02, table
    assert table["ce+ccl"] >= table["ce"] - 0.02, table
    assert elapsed < 300.0, f"ablation took {elapsed:.0f}s"
    print(f"\n[criterion 4] ablation direction: PASS ({elapsed:.0f}s)")
    for name in ("ce", "ce+cce", "ce+ccl", "cce+ccl", "all"):
        gate = " (reported, ungated)" if name == "cce+ccl" else ""
        print(f"    {name:8s} mean acc {table[name]:.4f}{gate}")


def test_criterion_5_key_generator_parity():
    started = time.perf_counter()
    seeds = (0, 1, 2)
    gens = ("moco", "membank")
    runs = iter(_fit_many([blobs_cfg((1, 1, 1), s, generator=gen) for gen in gens for s in seeds]))
    means = {gen: float(np.mean([next(runs).final_val_acc for _ in seeds])) for gen in gens}
    elapsed = time.perf_counter() - started
    gap = abs(means["moco"] - means["membank"])
    assert gap <= 0.02, means
    assert elapsed < 180.0, f"parity check took {elapsed:.0f}s"
    print(f"\n[criterion 5] key-generator parity: PASS "
          f"(moco {means['moco']:.4f} vs membank {means['membank']:.4f}, {elapsed:.0f}s)")


def test_criterion_6_determinism(tmp_path):
    args = [
        "--set", "dataset.classes=3", "--set", "dataset.per_class=20",
        "--set", "dataset.dim=4", "--set", "dataset.seed=7",
        "--set", "model.hidden=16", "--set", "model.feature_dim=8",
        "--set", "model.projector_dim=8",
        "--set", "optimizer.iterations=60", "--set", "optimizer.batch_size=8",
        "--set", "optimizer.base_lr=0.003", "--set", "losses.reduction=mean",
        "--set", "keys.queue_size=4", "--seed", "5",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--out", str(out1), *args]) == 0
    assert main(["train", "--out", str(out2), *args]) == 0
    b1 = (out1 / "metrics.csv").read_bytes()
    b2 = (out2 / "metrics.csv").read_bytes()
    assert b1 == b2
    print("\n[criterion 6] determinism: PASS (metrics.csv byte-identical)")


def test_criterion_7_sanity_learnability():
    run_blobs = trainer_mod.fit(blobs_cfg((1, 1, 1), 0, iterations=2000))
    assert run_blobs.best_val_acc >= 0.95, run_blobs.best_val_acc

    cfg = rings_cfg((1, 0, 0), 0, rate=1.0, iterations=2000)
    cfg.model.hidden = (64,)
    cfg.optimizer.base_lr = 0.01
    run_rings = trainer_mod.fit(validate_config(cfg))
    assert run_rings.best_val_acc >= 0.90, run_rings.best_val_acc
    print(f"\n[criterion 7] sanity learnability: PASS "
          f"(blobs all-losses {run_blobs.best_val_acc:.3f}, rings ce-only {run_rings.best_val_acc:.3f})")
