"""One real training step under ``cce``'s fused live slot 0 against the chain it replaced.

A rewrite that rounds differently cannot be judged by whole fits: the
twin-and-queue feedback loop grows a 1e-16 difference step by step.
So each check starts from a state captured mid-fit (``step_states``)
and runs one ``trainer.step`` twice: once as the library stands, once
with ``tests/unfused.py``'s zeroed-slab and ``E0`` chain patched in for
``row_dot_slab``. The loss terms, the gradients ``sgd_apply`` receives,
the updated params, twin and velocity, and every pool array must agree
to 1e-12 relative. No hash is pinned, so the gate holds on any numpy.
"""

import numpy as np
import pytest

import dualhead.ndgrad as nd
import unfused
from dualhead import trainer
from dualhead.config import CCE_VARIANTS, REDUCTIONS, RunConfig, validate_config
from step_states import StepState, capture_states, pool_arrays

RTOL = 1e-12
ITERATIONS = 60
STEPS = (1, ITERATIONS // 2, ITERATIONS)  # early, middle, and late (after both learning-rate decays)
SEEDS = (0, 1, 2)


def gate_cfg(generator: str, variant: str, reduction: str, classifier_bias: bool, seed: int) -> RunConfig:
    """Blobs in bank mode or rings on queues, all three terms on; sum takes a tenth of mean's learning rate."""
    cfg = RunConfig()
    cfg.seed = seed
    cfg.dataset.kind = "blobs" if generator == "membank" else "rings"
    cfg.dataset.per_class = 40
    cfg.dataset.seed = 5
    cfg.model.hidden = (16,)
    cfg.model.feature_dim = 8
    cfg.model.projector_dim = 8
    cfg.model.classifier_bias = classifier_bias
    cfg.optimizer.iterations = ITERATIONS
    cfg.optimizer.batch_size = 12
    cfg.optimizer.base_lr = 3e-3 if reduction == "mean" else 3e-4  # blobs diverge under sum at 3e-3
    cfg.losses.reduction = reduction
    cfg.losses.cce_variant = variant
    cfg.keys.generator = generator
    cfg.keys.queue_size = 8
    cfg.keys.momentum = 0.99
    return validate_config(cfg)


CONFIGS = [
    (generator, variant, reduction, bias)
    for generator in ("membank", "moco")
    for variant in CCE_VARIANTS
    for reduction in REDUCTIONS
    for bias in (False, True)
]


def one_step(state: StepState, old_chain: bool) -> tuple[dict[str, np.ndarray], list[str]]:
    """Everything one step from ``state`` produces, by name, and the ops of the nodes it built."""
    params, twin, pool, batch, opt, cfgs, rngs = state.restore()
    grads, ops = {}, []
    real_sgd_apply, real_from_op = trainer.sgd_apply, nd._from_op

    def recording_sgd_apply(params, opt, *rest):
        grads.update({name: t.grad.copy() for name, t in params.named_parameters() if t.grad is not None})
        real_sgd_apply(params, opt, *rest)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(trainer, "sgd_apply", recording_sgd_apply)
        m.setattr(nd, "_from_op", lambda arr, op, *rest: ops.append(op) or real_from_op(arr, op, *rest))
        if old_chain:
            m.setattr(nd, "row_dot_slab", unfused.row_dot_slab)
        terms = trainer.step(params, twin, pool, batch, opt, cfgs, rngs)
    out = {f"loss.{name}": np.array(value) for name, value in terms.values(0).items() if value is not None}
    out.update({f"grad.{name}": g for name, g in grads.items()})
    out.update(params=params.flat, twin=twin.flat, velocity=opt.velocity)
    out.update({f"pool.{name}": a for name, a in pool_arrays(pool).items()})
    return out, ops


@pytest.mark.parametrize("generator, variant, reduction, classifier_bias", CONFIGS)
def test_one_step_matches_the_zeroed_slab_chain(generator, variant, reduction, classifier_bias):
    for seed in SEEDS:
        cfg = gate_cfg(generator, variant, reduction, classifier_bias, seed)
        for state in capture_states(cfg, STEPS):
            got, new_ops = one_step(state, old_chain=False)
            want, old_ops = one_step(state, old_chain=True)
            where = f"seed {seed}, step {state.iteration}"
            # The old cce built select_rows, mul, matmul, row_dot_slab, add and masked_nll; the new one three of those.
            assert "matmul" in old_ops and "matmul" not in new_ops, where
            assert len(old_ops) == len(new_ops) + 3, where
            assert got.keys() == want.keys(), where
            for name, w in want.items():
                diff = np.abs(got[name] - w).max()
                assert diff <= RTOL * np.abs(w).max(), f"{where}: {name} differs by {diff:.3e}"
