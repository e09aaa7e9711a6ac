"""Real training states, captured mid-fit, from which one ``trainer.step`` can be replayed.

``capture_states(cfg, iterations)`` runs ``trainer.fit(cfg)``, a fit
group of one, and, just before each listed step, copies everything that
step reads or writes: the (1 x P) parameter and twin vectors, the
velocity, the learning-rate multiplier, the key store (a replica axis
of one), the batch (likewise) and the sampling generator's state.
``StepState.restore`` rebuilds fresh objects from those copies as often
as a test needs. ``ModelParams`` is rebuilt from ``flat``, never
deep-copied, so its tensors stay views of the one vector.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from dualhead import trainer
from dualhead.config import RunConfig
from dualhead.keypool import KeyEntry, MemoryBank, MocoQueues
from dualhead.model import ModelDims, ModelParams, MomentumTwin


@dataclass
class StepState:
    cfg: RunConfig
    iteration: int
    dims: ModelDims
    flat: np.ndarray
    twin_flat: np.ndarray
    velocity: np.ndarray
    lr_mult: float
    pool: MocoQueues | MemoryBank
    batch: tuple[np.ndarray, np.ndarray, np.ndarray]
    rng_state: dict

    def restore(self):
        """Fresh (params, twin, pool, batch, opt, cfgs, rngs): ``trainer.step``'s arguments for a group of one."""
        params = ModelParams(self.dims, self.cfg.model.classifier_bias, replicas=1)
        params.flat[:] = self.flat
        twin = MomentumTwin(params, self.cfg.keys.momentum)
        twin.flat[:] = self.twin_flat
        opt = trainer.init_optimizer(params, [self.cfg])
        opt.velocity[:] = self.velocity
        opt.lr_mult = self.lr_mult
        rng = np.random.default_rng()
        rng.bit_generator.state = self.rng_state
        batch = tuple(a.copy() for a in self.batch)
        return params, twin, copy.deepcopy(self.pool), batch, opt, [self.cfg], [rng]


def pool_arrays(pool: MocoQueues | MemoryBank) -> dict[str, np.ndarray]:
    """Every array a store holds: queue rings and counts, or bank snapshots, labels and class segments."""
    return {name: value for name, value in vars(pool).items() if isinstance(value, np.ndarray)}


def queue_entries(queues: MocoQueues, label: int) -> list[KeyEntry]:
    """Copies of one class's keys in a lone queue store, oldest first."""
    count = int(queues._count[0, label])
    slots = np.arange(count - min(count, queues.queue_size), count) % queues.queue_size
    return [KeyEntry(queues._h[0, label, s].copy(), queues._z[0, label, s].copy(), label) for s in slots]


def capture_states(cfg: RunConfig, iterations) -> list[StepState]:
    """The state just before each listed step (counted from 1) of ``trainer.fit(cfg)``."""
    wanted, states, real_step, counter = set(iterations), [], trainer.step, itertools.count(1)

    def capturing_step(params, twin, pool, batch, opt, cfgs, rngs):
        iteration = next(counter)
        if iteration in wanted:
            (step_cfg,), (rng,) = cfgs, rngs
            states.append(StepState(
                cfg=step_cfg,
                iteration=iteration,
                dims=params.dims,
                flat=params.flat.copy(),
                twin_flat=twin.flat.copy(),
                velocity=opt.velocity.copy(),
                lr_mult=opt.lr_mult,
                pool=copy.deepcopy(pool),
                batch=tuple(a.copy() for a in batch),
                rng_state=rng.bit_generator.state,  # a fresh dict on every read
            ))
        return real_step(params, twin, pool, batch, opt, cfgs, rngs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(trainer, "step", capturing_step)
        trainer.fit(cfg)
    assert [s.iteration for s in states] == sorted(wanted), "a listed step is past the end of the fit"
    return states
