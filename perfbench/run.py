"""The ringprune benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 -m pytest perfbench/tests      # the checks can fail

S defaults to ``run_seconds`` in BENCHMARK.json, which also gives every
metric's name and unit. The seed (default ``DEFAULT_SEED`` in
``workloads.py``) picks a panel of ``PANEL_SIZE`` run seeds; each run seed
drives the task's data seed, the training seed and the shared
mask-agreement seed.

Runs workload NAME (see ``workloads.py``) closed-loop, one run at a time,
each run in a fresh child process (``child.py``) with BLAS threads pinned to
1, cycling through the panel's run seeds until S seconds have passed and
every run seed has run once (and the first one twice). Prints every metric
by name and unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced runs. ``--trace 1``
runs each run seed untraced and then traced, and reports the per-layer
metrics of the traced runs (medians over them) plus the tracing overhead.

Host times are rescaled to a reference host speed. On a shared virtual
machine the host's speed drifts by up to 2x over minutes, as other tenants
load sibling hardware threads, and no affordable run length averages that
away. Each child therefore times a short fixed pure-Python job after every
super-step (``child.probe``; outside the step timer, and taken out of the
run's times), and every time it reports is multiplied by REFERENCE_PROBE_S /
(its median probe time). Each run's factor and the unscaled medians are
printed as info lines.

End-to-end metrics (scaled host time; bytes are simulated and exact per run
seed):

  setup_s       median over runs of child start to the first super-step:
                ``import ringprune``, ``resolve_experiment`` (dataset
                generation included) and ``run_experiment``'s preamble
  steps_per_s   median over runs of steps / seconds inside run_experiment
  step_ms_p50   median and 90th percentile of super-step host times,
  step_ms_p90   pooled over all runs (sample count printed)
  run_s         median over runs of child start until metrics.csv,
                bandwidth.csv and manifest.json are written
  peak_rss_mb   median over runs of the child's max resident set
  wire_bytes    sum of ``bytes_total`` over a run's steps, mean over the
                panel's run seeds
  final_loss    loss at a run's last step, mean over the panel's run seeds
  passed_share  runs that passed every check / runs attempted

A run fails when its child exits abnormally, when one of its correctness
checks fails, or when its metrics.csv or bandwidth.csv differ from those of
the invocation's first run of the same run seed. Run outputs are left in
.bench_out/NAME/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import mismatched_digests  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, panel_seeds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHILD_TIMEOUT_S = 90

# ``child.probe`` time of a 2-vCPU Intel Xeon VM at its fastest.
REFERENCE_PROBE_S = 0.0002

# Units of host time, which are rescaled to the reference host speed.
TIME_UNITS = ("s", "ms", "ms/step")


def run_child(workload: str, seed: int, out: Path, traced: bool, env: dict) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--out",
        str(out),
    ]
    if traced:
        cmd.append("--trace")
    failed = {"seed": seed, "traced": traced}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return dict(failed, failures=[f"run did not finish in {CHILD_TIMEOUT_S} s"])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return dict(failed, failures=[f"run exited with code {proc.returncode}: {tail[0]}"])
    return dict(json.loads(lines[-1]), seed=seed)


def tally(runs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over ``runs``, after marking each completed run
    whose output digests differ from the first completed run of its seed as
    failed."""
    completed = [r for r in runs if "digest" in r]
    for i in mismatched_digests([(r["seed"], r["digest"]) for r in completed]):
        completed[i]["failures"].append("outputs differ from the first run's of its seed")
    return len(runs), sum(1 for r in runs if r["failures"])


def speed(run: dict) -> float:
    """Factor that rescales a run's host times to the reference host speed."""
    return REFERENCE_PROBE_S / run["probe_s"]


def first_per_seed(runs: list[dict], seeds: list[int]) -> list[dict]:
    """The first of ``runs`` of each of ``seeds`` that has one."""
    first: dict[int, dict] = {}
    for r in runs:
        first.setdefault(r["seed"], r)
    return [first[s] for s in seeds if s in first]


def end_to_end(runs: list[dict], seeds: list[int], attempted: int, failed: int) -> dict:
    step_ms = [ms * speed(r) for r in runs for ms in r["step_ms"]]
    cuts = statistics.quantiles(step_ms, n=100, method="inclusive")
    panel = first_per_seed(runs, seeds)
    return {
        "setup_s": statistics.median(r["setup_s"] * speed(r) for r in runs),
        "steps_per_s": statistics.median(r["steps_per_s"] / speed(r) for r in runs),
        "step_ms_p50": cuts[49],
        "step_ms_p90": cuts[89],
        "run_s": statistics.median(r["run_s"] * speed(r) for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "wire_bytes": statistics.fmean(r["wire_bytes"] for r in panel),
        "final_loss": statistics.fmean(r["final_loss"] for r in panel),
        "passed_share": (attempted - failed) / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    layers = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name == "trace.overhead":
            # traced step time over untraced step time, from median scaled steps/s
            layers[name] = statistics.median(
                r["steps_per_s"] / speed(r) for r in untraced
            ) / statistics.median(r["steps_per_s"] / speed(r) for r in traced)
            continue
        is_time = m["unit"] in TIME_UNITS
        layers[name] = statistics.median(
            r["layers"][name] * (speed(r) if is_time else 1.0) for r in traced
        )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ringprune" / "__init__.py").is_file():
        print(f"no ringprune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    seeds = panel_seeds(args.seed)
    kinds = (False, True) if args.trace else (False,)
    # Untraced, the first run seed runs twice so its digests are compared.
    min_rounds = 1 if args.trace else len(seeds) + 1
    runs: list[dict] = []
    deadline = time.monotonic() + args.seconds
    rounds = 0
    while rounds < min_rounds or time.monotonic() < deadline:
        seed = seeds[rounds % len(seeds)]
        for traced in kinds:
            out = out_root / f"run{len(runs):03d}{'-traced' if traced else ''}"
            runs.append(run_child(args.workload, seed, out, traced, env))
        rounds += 1

    attempted, failed = tally(runs)
    completed = [r for r in runs if "digest" in r]
    for i, r in enumerate(runs):
        for failure in r["failures"]:
            print(f"run {i} (seed {r['seed']}) failed: {failure}", file=sys.stderr)

    untraced = [r for r in completed if not r["traced"]]
    traced = [r for r in completed if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("no run completed", file=sys.stderr)
        return 1

    env_info = untraced[0]["env"]
    print(
        f"workload {args.workload} seed {args.seed} (run seeds {seeds[0]}..{seeds[-1]}): "
        f"{attempted} runs attempted, {failed} failed, "
        f"{len(untraced)} untraced and {len(traced)} traced completed"
    )
    print(
        f"env: python {env_info['python']}, numpy {env_info['numpy']}, "
        f"BLAS {env_info['blas']}, nproc {env_info['nproc']}, "
        + ", ".join(f"{k}={v}" for k, v in env_info["threads"].items())
    )
    print(
        f"info: host probe median {statistics.median(r['probe_s'] for r in completed):.6f} s "
        f"against reference {REFERENCE_PROBE_S} s; unscaled medians: "
        f"setup_s {statistics.median(r['setup_s'] for r in untraced):.4f}, "
        f"steps_per_s {statistics.median(r['steps_per_s'] for r in untraced):.4f}, "
        f"run_s {statistics.median(r['run_s'] for r in untraced):.4f}"
    )
    print("info: scale factor per run: " + " ".join(f"{speed(r):.3f}" for r in completed))
    if WORKLOADS[args.workload].mode != "dense":
        panel = [r["counts"] for r in first_per_seed(untraced, seeds)]

        def mean(key):
            return statistics.fmean(c[key] for c in panel)

        print(
            f"info: over {len(panel)} run seeds, warm-up steps sent {mean('ring.bytes.warmup'):.0f} "
            f"bytes per run ({mean('ring.bytes.warmup_vs_dense'):.4f}x dense-equivalent), "
            f"pruned steps {mean('ring.bytes.pruned'):.0f} bytes per run "
            f"({mean('ring.bytes.pruned_vs_dense'):.4f}x dense-equivalent)"
        )

    if args.trace:
        values = per_layer(traced, untraced)
        specs = SPEC["per_layer"]
    else:
        values = end_to_end(untraced, seeds, attempted, failed)
        specs = SPEC["end_to_end"]
        n_samples = sum(len(r["step_ms"]) for r in untraced)
        print(f"step samples: {n_samples} super-steps pooled over {len(untraced)} runs")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
