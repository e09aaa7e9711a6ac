"""Metric catalogue and the per-layer metrics computed from a span trace.

``PER_LAYER`` maps every layer metric to the end-to-end metric and the
workloads it should move, written down before anything is measured.
BENCHMARK.json lists the same names with their units; ``smoke.py``
checks that the two agree.

"Per step" divides by the traced run's work units: ``trainer.step``
calls on the fit and ablate workloads, and check instances
(``gradcheck.worst_relative_error`` calls) on ``gradcheck``.
"""

from __future__ import annotations

import numpy as np

from tracing import FIT_SPAN, FORWARD_SPAN, self_time_ns

NAME_PATTERN = r"[A-Za-z0-9_.-]+"

# name -> (unit, better). Every run must print every end-to-end metric, so
# one ``throughput`` name serves all workloads; THROUGHPUT_NAMES says what
# it counts on each.
END_TO_END = {
    "throughput": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
THROUGHPUT_NAMES = {"fit_ce": "steps_per_s", "fit_membank": "steps_per_s", "ablate": "runs_per_s", "gradcheck": "checks_per_s"}

OPS = (
    "matmul", "transpose", "add", "mul", "scale_by_scalar", "relu", "sum", "mean",
    "select_rows", "concat_rows", "row_l2_normalize", "log_softmax_row",
)

TRAINING = ("fit_ce", "fit_membank", "ablate")
CONTRASTIVE = ("fit_membank", "ablate")
ALL = ("fit_ce", "fit_membank", "ablate", "gradcheck")


def _catalogue() -> dict[str, tuple[str, str, str, tuple[str, ...]]]:
    """name -> (unit, better, end-to-end metric it moves, workloads)."""
    out = {}
    for op in OPS:
        out[f"ndgrad.{op}.calls_per_step"] = ("count", "lower", "throughput", ALL)
        out[f"ndgrad.{op}.ms_per_step"] = ("ms", "lower", "throughput", ALL)
    out["ndgrad.Tensor.calls_per_step"] = ("count", "lower", "throughput", ALL)
    out["ndgrad.nodes_per_step"] = ("count", "lower", "throughput", ALL)
    out["ndgrad.backward.ms_per_step"] = ("ms", "lower", "throughput", TRAINING)
    for name in ("ce", "cce", "ccl", "joint_total"):
        moves = ("fit_ce",) if name == "ce" else ()
        out[f"losses.{name}.ms_per_step"] = ("ms", "lower", "throughput", moves + CONTRASTIVE + ("gradcheck",))
    for name in ("cce", "ccl"):
        out[f"losses.{name}.self_ms_per_step"] = ("ms", "lower", "throughput", CONTRASTIVE + ("gradcheck",))
    for name in ("sample", "entry", "enqueue", "update"):
        out[f"keypool.{name}.ms_per_step"] = ("ms", "lower", "throughput", CONTRASTIVE)
    out["keypool.sample.calls_per_step"] = ("count", "lower", "throughput", CONTRASTIVE)
    out["keypool.KeyEntry.calls_per_step"] = ("count", "lower", "throughput", CONTRASTIVE)
    out["model.forward_query.ms_per_step"] = ("ms", "lower", "throughput", ALL)
    out["model.forward_key.ms_per_step"] = ("ms", "lower", "throughput", ("ablate",))
    out["model.momentum_update.ms_per_step"] = ("ms", "lower", "throughput", ("ablate",))
    out["trainer.sgd_apply.ms_per_step"] = ("ms", "lower", "throughput", TRAINING)
    out["trainer.step.self_ms_per_step"] = ("ms", "lower", "throughput", TRAINING)
    out["trainer.step.ms_p50"] = ("ms", "lower", "throughput", TRAINING)
    out["trainer.step.ms_p99"] = ("ms", "lower", "throughput", TRAINING)
    out["trainer.step.samples"] = ("count", "higher", "throughput", TRAINING)
    out["trainer.prepare_data.ms"] = ("ms", "lower", "setup_s", TRAINING)
    out["trainer.warmup.ms"] = ("ms", "lower", "setup_s", CONTRASTIVE)
    out["cli.fits"] = ("count", "higher", "throughput", ("ablate",))
    out["cli.fit.busy_s"] = ("s", "lower", "throughput", ("ablate",))
    out["cli.fit.concurrency"] = ("ratio", "higher", "throughput", ("ablate",))
    out["cli.fit.queue_wait_s"] = ("s", "lower", "throughput", ("ablate",))
    out["gradcheck.forward_evals"] = ("count", "lower", "throughput", ("gradcheck",))
    out["gradcheck.ms_per_forward_eval"] = ("ms", "lower", "throughput", ("gradcheck",))
    out["gradcheck.analytic_gradients.s"] = ("s", "lower", "throughput", ("gradcheck",))
    out["trace.steps"] = ("count", "higher", "throughput", ALL)
    out["trace.overhead_pct"] = ("%", "lower", "throughput", ALL)
    return out


PER_LAYER = _catalogue()

# Counts that must repeat exactly for a fixed seed.
EXACT = tuple(n for n, spec in PER_LAYER.items() if n.endswith("calls_per_step")) + (
    "ndgrad.nodes_per_step", "gradcheck.forward_evals", "cli.fits",
)


def layer_metrics(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_pct``, from one trace."""
    ids = {n: i for i, n in enumerate(names)}
    name = spans["name"]
    dur = spans["end"] - spans["start"]
    count = np.bincount(name, minlength=len(names))
    total_ns = np.bincount(name, weights=dur, minlength=len(names))
    self_ns = self_time_ns(spans)

    def calls(span: str) -> int:
        return int(count[ids[span]]) if span in ids else 0

    def mask(span: str) -> np.ndarray:
        return name == ids.get(span, -1)

    steps = calls("trainer.step") or calls("gradcheck.worst_relative_error")

    def per_step(total: float) -> float:
        return total / steps if steps else 0.0

    def ms_per_step(span: str) -> float:
        return per_step(float(total_ns[ids[span]]) / 1e6) if span in ids else 0.0

    def self_ms_per_step(span: str) -> float:
        return per_step(float(self_ns[mask(span)].sum()) / 1e6)

    def mean_ms(span: str) -> float:
        n = calls(span)
        return float(total_ns[ids[span]]) / 1e6 / n if n else 0.0

    m: dict[str, float] = {}
    for op in OPS:
        m[f"ndgrad.{op}.calls_per_step"] = per_step(calls(f"ndgrad.{op}"))
        m[f"ndgrad.{op}.ms_per_step"] = ms_per_step(f"ndgrad.{op}")
    m["ndgrad.Tensor.calls_per_step"] = per_step(calls("ndgrad.Tensor"))
    m["ndgrad.nodes_per_step"] = per_step(sum(calls(f"ndgrad.{op}") for op in OPS))
    m["ndgrad.backward.ms_per_step"] = ms_per_step("ndgrad.backward")
    for loss in ("ce", "cce", "ccl", "joint_total"):
        m[f"losses.{loss}.ms_per_step"] = ms_per_step(f"losses.{loss}")
    for loss in ("cce", "ccl"):
        m[f"losses.{loss}.self_ms_per_step"] = self_ms_per_step(f"losses.{loss}")
    for fn in ("sample", "entry", "enqueue", "update"):
        m[f"keypool.{fn}.ms_per_step"] = ms_per_step(f"keypool.{fn}")
    m["keypool.sample.calls_per_step"] = per_step(calls("keypool.sample"))
    m["keypool.KeyEntry.calls_per_step"] = per_step(calls("keypool.KeyEntry"))
    for fn in ("forward_query", "forward_key", "momentum_update"):
        m[f"model.{fn}.ms_per_step"] = ms_per_step(f"model.{fn}")
    m["trainer.sgd_apply.ms_per_step"] = ms_per_step("trainer.sgd_apply")
    m["trainer.step.self_ms_per_step"] = self_ms_per_step("trainer.step")
    step_ms = dur[mask("trainer.step")] / 1e6
    m["trainer.step.ms_p50"] = float(np.percentile(step_ms, 50)) if step_ms.size else 0.0
    m["trainer.step.ms_p99"] = float(np.percentile(step_ms, 99)) if step_ms.size else 0.0
    m["trainer.step.samples"] = float(step_ms.size)
    m["trainer.prepare_data.ms"] = mean_ms("trainer.prepare_data")
    m["trainer.warmup.ms"] = mean_ms("trainer.warmup")
    m.update(_fit_pool_metrics(spans, ids))
    checks = calls("gradcheck.run_gradcheck")
    m["gradcheck.forward_evals"] = calls(FORWARD_SPAN) / checks if checks else 0.0
    m["gradcheck.ms_per_forward_eval"] = mean_ms(FORWARD_SPAN)
    m["gradcheck.analytic_gradients.s"] = (
        float(total_ns[ids["gradcheck.analytic_gradients"]]) / 1e9 / checks if checks else 0.0
    )
    m["trace.steps"] = float(steps)
    return m


def _fit_pool_metrics(spans: dict[str, np.ndarray], ids: dict[str, int]) -> dict[str, float]:
    """Fits per ``cli._fit_many`` call, their busy time, overlap and queueing."""
    pools = np.flatnonzero(spans["name"] == ids.get("cli._fit_many", -1))
    if pools.size == 0:
        return {"cli.fits": 0.0, "cli.fit.busy_s": 0.0, "cli.fit.concurrency": 0.0, "cli.fit.queue_wait_s": 0.0}
    fits = np.flatnonzero(spans["name"] == ids.get(FIT_SPAN, -1))
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    n_fits, busy, concurrency, wait = [], [], [], []
    for p in pools:
        mine = fits[parent[fits] == p]
        b = float((end[mine] - start[mine]).sum()) / 1e9
        n_fits.append(mine.size)
        busy.append(b)
        concurrency.append(b / (float(end[p] - start[p]) / 1e9))
        wait.append(float((start[mine] - start[p]).sum()) / 1e9)
    return {
        "cli.fits": float(np.mean(n_fits)),
        "cli.fit.busy_s": float(np.mean(busy)),
        "cli.fit.concurrency": float(np.mean(concurrency)),
        "cli.fit.queue_wait_s": float(np.mean(wait)),
    }
