"""One benchmark run of ringprune, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace]

Builds the workload's config from the seed and runs it through ringprune's
public API: ``config.resolve_experiment``, ``trainer.run_experiment``, then
``trainer.write_metrics_csv``, ``ring.write_bandwidth_csv`` and
``config.write_manifest`` into DIR. Checks the outputs and prints one JSON
object as the last line of stdout. ``run.py`` starts one of these per run.

Untraced, the run has one timer pair around each call of the mode's
super-step function, plus an untimed capture of the sparse reduce's output
for the sparsity-preservation check. After each super-step's timer stops,
a short host-speed probe runs (see ``probe``); the time spent in the step
hook is taken out of the run's times. Traced, it also wraps the functions
``trainer`` imports from ``ring``, ``codec`` and ``importance``, the codec
functions ``ring`` imports, and the task's gradient and evaluate methods,
and writes the spans to DIR/spans.json.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import ringprune  # noqa: E402
from ringprune import config, ring, trainer  # noqa: E402

from checks import (  # noqa: E402
    check_bandwidth_total,
    check_dense_bytes,
    check_final_loss,
    check_reduce_messages,
    check_sparsity,
    dense_wire_bytes,
)
from tracing import Tracer, patched  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Leaf layers called inside a super-step: (module, attribute, span name).
TRACED_NAMES = (
    (trainer, "compute_importance", "importance.compute_importance"),
    (trainer, "thresholds_for", "importance.thresholds_for"),
    (trainer, "build_local_mask", "importance.build_local_mask"),
    (trainer, "split_by_mask", "codec.split_by_mask"),
    (trainer, "dense_allreduce", "ring.dense_allreduce"),
    (ring, "encode_mask", "codec.mask_codec"),
    (ring, "decode_mask", "codec.mask_codec"),
    (ring, "or_masks", "codec.mask_codec"),
)

PROBE_ITEMS = 1500


def probe() -> float:
    """Seconds a fixed pure-Python job takes: the host's speed right now.

    On a shared virtual machine the speed drifts by up to 2x within a run,
    as other tenants load sibling hardware threads. Probing between the
    super-steps tracks that drift far better than probing before and after
    the run, and building small objects tracks it better than plain
    arithmetic, as the program's own work does much of that.
    """
    start = time.perf_counter()
    dict([(i, str(i)) for i in range(PROBE_ITEMS)])
    return time.perf_counter() - start


class StepLog:
    """Times each super-step, probes the host's speed after it and records
    what the checks need about it.

    Everything but the timer pair runs after the timer has stopped, and its
    time is summed in ``hook_s``.
    """

    def __init__(self, step_fn, warmup_epochs: int) -> None:
        self._signature = inspect.signature(step_fn)
        self._warmup_epochs = warmup_epochs
        self._reduced = None
        self.first_start: float | None = None
        self.steps: list[dict] = []
        self.agreements: list[tuple] = []
        self.probes: list[float] = []
        self.hook_s = 0.0

    def wrap_step(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            outcome = fn(*args, **kwargs)
            end = time.perf_counter()
            self.probes.append(probe())
            self._log(start, end, args, kwargs, outcome)
            self.hook_s += time.perf_counter() - end
            return outcome

        return timed

    def capture_reduce(self, fn):
        def capture(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._reduced = out[0]
            return out

        return capture

    def capture_agreement(self, fn):
        def capture(local_masks, *args, **kwargs):
            out = fn(local_masks, *args, **kwargs)
            self.agreements.append((list(local_masks), out[0]))
            return out

        return capture

    def _log(self, start, end, args, kwargs, outcome) -> None:
        if self.first_start is None:
            self.first_start = start
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        entry = {
            "step": bound.arguments["step"],
            "warmup": bound.arguments["epoch"] < self._warmup_epochs,
            "ms": (end - start) * 1e3,
        }
        shared = outcome.shared_mask
        if shared is not None:
            reduced, self._reduced = self._reduced, None
            entry["shared_popcount"] = shared.popcount()
            entry["length"] = shared.length
            entry["support_ok"] = reduced is not None and bool(
                np.array_equal(reduced.indices, np.flatnonzero(shared.bits))
            )
        self.steps.append(entry)


def hooks(task, step_name: str, log: StepLog, tracer: Tracer | None) -> list:
    """Attribute replacements for one run."""

    def traced(name, fn):
        return tracer.wrap(name, fn) if tracer else fn

    replacements = []
    if tracer:
        replacements += [
            (module, attr, tracer.wrap(name, getattr(module, attr)))
            for module, attr, name in TRACED_NAMES
        ]
        replacements += [
            (task, "node_gradient", tracer.wrap("tasks.gradient", task.node_gradient)),
            (task, "evaluate", tracer.wrap("tasks.evaluate", task.evaluate)),
            (
                trainer,
                "mask_agreement_round",
                log.capture_agreement(
                    tracer.wrap("ring.mask_agreement_round", trainer.mask_agreement_round)
                ),
            ),
        ]
    replacements.append(
        (
            trainer,
            "sparse_allreduce",
            log.capture_reduce(traced("ring.sparse_allreduce", trainer.sparse_allreduce)),
        )
    )
    replacements.append(
        (trainer, step_name, log.wrap_step(traced("trainer.step", getattr(trainer, step_name))))
    )
    return replacements


def or_zero(stat, values: list) -> float:
    """``stat(values)``, or 0 where the run has no such values."""
    return stat(values) if values else 0.0


def layer_metrics(totals, log: StepLog, counts: dict, n_steps: int) -> dict:
    """Per-layer numbers of one traced run; step-level times are per step."""

    def total(name, key="s"):
        return totals.get(name, {}).get(key, 0.0)

    def per_step_ms(name, key="s"):
        return 1e3 * total(name, key) / n_steps

    # run_experiment's span holds the step hook, which is not the program's
    totals = dict(totals)
    totals["trainer.run"] = dict(totals["trainer.run"], s=totals["trainer.run"]["s"] - log.hook_s)
    metrics = {}
    for name in (
        "tasks.gradient",
        "tasks.evaluate",
        "importance.compute_importance",
        "importance.thresholds_for",
        "importance.build_local_mask",
        "codec.split_by_mask",
        "codec.mask_codec",
        "ring.sparse_allreduce",
        "ring.dense_allreduce",
        "trainer.step",
        "trainer.run",
    ):
        metrics[f"{name}.ms"] = per_step_ms(name)
    for name in ("tasks.gradient", "tasks.evaluate"):
        metrics[f"{name}.calls"] = total(name, "calls") / n_steps
    for name in ("ring.mask_agreement_round", "trainer.step"):
        metrics[f"{name}.self_ms"] = per_step_ms(name, "self_s")
    # run_experiment minus its super-steps and evaluations
    metrics["trainer.run.self_ms"] = (
        per_step_ms("trainer.run") - metrics["trainer.step.ms"] - metrics["tasks.evaluate.ms"]
    )
    for name in ("config.resolve_experiment", "trainer.write_metrics_csv", "ring.write_bandwidth_csv"):
        metrics[f"{name}.ms"] = 1e3 * total(name)
    for kind, warmup in (("warmup", True), ("pruned", False)):
        metrics[f"trainer.step_ms.{kind}.p50"] = or_zero(
            statistics.median, [s["ms"] for s in log.steps if s["warmup"] == warmup]
        )

    candidate, shared, coverage = [], [], []
    for entry, (local_masks, mask) in zip(log.steps, log.agreements):
        if entry["warmup"]:
            continue
        candidate.append(statistics.fmean(m.density() for m in local_masks))
        shared.append(mask.density())
        union = ringprune.or_masks(local_masks).popcount()
        coverage.append(mask.popcount() / union if union else 1.0)
    metrics["importance.candidate_density"] = or_zero(statistics.fmean, candidate)
    metrics["ring.shared_density"] = or_zero(statistics.fmean, shared)
    metrics["ring.agreement_coverage"] = or_zero(statistics.fmean, coverage)
    metrics.update(counts)
    return metrics


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
    }


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_once(raw: dict, out: Path, traced: bool, t0: float):
    """One run of ``raw`` into ``out``: (report, RunResult, StepLog).

    ``t0`` is when the run's process started.
    """
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if traced else None

    def call(name, fn):
        return tracer.wrap(name, fn) if tracer else fn

    experiment = call("config.resolve_experiment", config.resolve_experiment)(
        raw, out_override=str(out)
    )
    dense = experiment.mode == trainer.MODE_DENSE
    step_name = "baseline_dense_step" if dense else "compressed_step"
    log = StepLog(getattr(trainer, step_name), experiment.policy.warmup_epochs)
    with patched(hooks(experiment.task, step_name, log, tracer)):
        run_start = time.perf_counter()
        result = call("trainer.run", trainer.run_experiment)(
            experiment.task,
            experiment.training,
            experiment.policy,
            experiment.mask_cfg,
            experiment.mode,
        )
        run_end = time.perf_counter()
    call("trainer.write_metrics_csv", trainer.write_metrics_csv)(
        result.metrics, out / config.METRICS_NAME
    )
    call("ring.write_bandwidth_csv", ring.write_bandwidth_csv)(
        result.stats, out / config.BANDWIDTH_NAME
    )
    call("config.write_manifest", config.write_manifest)(experiment, out / config.MANIFEST_NAME)
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_nodes = experiment.training.n_nodes
    n_steps = len(result.metrics) - 1
    padded = ring.RingTopology.create(n_nodes, experiment.task.layout.total_length).padded_length
    wire_bytes = result.total_bytes()
    warm_steps = sum(1 for s in log.steps if s["warmup"])
    warm_bytes = sum(
        m.bytes_total
        for m in result.metrics[1:]
        if m.epoch < experiment.policy.warmup_epochs
    )
    dense_step_bytes = dense_wire_bytes(n_nodes, padded, 1)
    counts = {
        "ring.messages": len(result.stats.records),
        "ring.bytes.warmup": warm_bytes,
        "ring.bytes.pruned": wire_bytes - warm_bytes,
        "ring.bytes.warmup_vs_dense": warm_bytes / (warm_steps * dense_step_bytes)
        if warm_steps
        else 0.0,
        "ring.bytes.pruned_vs_dense": (wire_bytes - warm_bytes)
        / ((n_steps - warm_steps) * dense_step_bytes)
        if n_steps > warm_steps
        else 0.0,
    }
    for phase in ("scatter_reduce", "allgather", "mask_round"):
        counts[f"ring.bytes.{phase}"] = result.stats.bytes_for(phase)

    failures = []
    if n_steps < 1 or len(log.steps) != n_steps:
        failures.append(f"step hook saw {len(log.steps)} of {n_steps} steps")
    failures += check_bandwidth_total(out / config.BANDWIDTH_NAME, wire_bytes)
    failures += check_reduce_messages(result.stats.records, n_nodes, n_steps)
    if dense:
        failures += check_dense_bytes(wire_bytes, n_nodes, padded, n_steps)
    else:
        failures += check_sparsity(log.steps)
    failures += check_final_loss(result.final_loss())

    report = {
        "traced": bool(tracer),
        "probe_s": statistics.median(log.probes) if log.probes else float("nan"),
        "setup_s": log.first_start - t0 if log.first_start is not None else float("nan"),
        "run_s": end - t0 - log.hook_s,
        "steps": n_steps,
        "steps_per_s": n_steps / (run_end - run_start - log.hook_s),
        "peak_rss_mb": peak_rss_mb,
        "wire_bytes": wire_bytes,
        "final_loss": result.final_loss(),
        "step_ms": [s["ms"] for s in log.steps],
        "digest": {
            name: sha256(out / name) for name in (config.METRICS_NAME, config.BANDWIDTH_NAME)
        },
        "failures": failures,
        "counts": counts,
        "env": environment(),
    }
    if tracer:
        tracer.write(out / "spans.json")
        report["layers"] = layer_metrics(tracer.totals(), log, counts, n_steps)
    return report, result, log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(ringprune.__file__).resolve().parents:
        print(f"ringprune was imported from {ringprune.__file__}, not from {src}", file=sys.stderr)
        return 2
    report, _result, _log = run_once(
        build_config(args.workload, args.seed), Path(args.out), args.trace, T0
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
