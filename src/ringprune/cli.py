"""Command-line front end: run experiments and compare runs.

The CLI computes nothing itself; it resolves a config, hands it to the
trainer, and serialises what comes back. ``run`` writes metrics.csv,
bandwidth.csv, and manifest.json into the output directory; ``compare``
prints an alignment of two finished runs as CSV on stdout.

Exit codes: 0 success, 2 configuration error, 3 diverged run.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from .config import (
    BANDWIDTH_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    load_config_file,
    resolve_experiment,
    write_manifest,
)
from .errors import ConfigError, DivergenceError
from .ring import write_bandwidth_csv
from .trainer import run_experiment, write_metrics_csv

COMPARE_CSV_HEADER = ("metric", "run_a", "run_b", "delta", "ratio")


def cmd_run(config_path: str, *, seed: int | None = None, out: str | None = None, quiet: bool = False) -> int:
    raw = load_config_file(config_path)
    experiment = resolve_experiment(raw, seed_override=seed, out_override=out)
    out_dir = Path(experiment.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: cannot create {out_dir}: {exc}") from exc
    result = run_experiment(
        experiment.task,
        experiment.training,
        experiment.policy,
        experiment.mask_cfg,
        experiment.mode,
    )
    write_metrics_csv(result.metrics, out_dir / METRICS_NAME)
    write_bandwidth_csv(result.stats, out_dir / BANDWIDTH_NAME)
    write_manifest(experiment, out_dir / MANIFEST_NAME)
    if not quiet:
        print(f"wrote {out_dir / METRICS_NAME}")
        print(f"wrote {out_dir / BANDWIDTH_NAME}")
        print(f"wrote {out_dir / MANIFEST_NAME}")
        print(
            f"mode={experiment.mode} steps={result.metrics[-1].step} "
            f"final_loss={result.final_loss():.6g} total_bytes={result.total_bytes()}"
        )
    return 0


def _load_run(run_dir: str) -> tuple[dict, dict[str, float | None]]:
    """A finished run's manifest and the summary of its metrics.csv."""
    base = Path(run_dir)
    manifest_path = base / MANIFEST_NAME
    metrics_path = base / METRICS_NAME
    if not manifest_path.is_file() or not metrics_path.is_file():
        raise ConfigError(
            f"{run_dir}: not a finished run directory (needs {MANIFEST_NAME} and {METRICS_NAME})"
        )
    manifest = load_config_file(manifest_path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("experiment", {}), dict):
        raise ConfigError(
            f"{manifest_path}: the manifest and its 'experiment' must be JSON objects"
        )
    try:
        with open(metrics_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {metrics_path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{metrics_path}: no metric rows")
    return manifest, _summarise(rows, metrics_path)


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


def _summarise(rows: list[dict], path: Path) -> dict[str, float | None]:
    def column(key: str, parse=_optional_float) -> list:
        """Column ``key`` of the metrics.csv at ``path``, each cell parsed."""
        try:
            return [parse(row[key]) for row in rows]
        except KeyError:
            raise ConfigError(f"{path}: no '{key}' column") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad '{key}' cell: {exc}") from None

    ratios = [r for r in column("compression_ratio") if r is not None and math.isfinite(r)]
    try:
        total_bytes = float(sum(column("bytes_total", int)))
    except OverflowError:
        raise ConfigError(f"{path}: 'bytes_total' sums past the float range") from None
    return {
        "final_loss": column("loss")[-1],
        "final_accuracy": column("accuracy")[-1],
        "mean_compression_ratio": sum(ratios) / len(ratios) if ratios else None,
        "total_bytes": total_bytes,
    }


def cmd_compare(run_dir_a: str, run_dir_b: str) -> int:
    manifest_a, summary_a = _load_run(run_dir_a)
    manifest_b, summary_b = _load_run(run_dir_b)
    task_a = manifest_a.get("experiment", {}).get("task")
    task_b = manifest_b.get("experiment", {}).get("task")
    if task_a != task_b:
        raise ConfigError(
            f"task specs differ between runs: {task_a!r} vs {task_b!r}"
        )
    writer = csv.writer(sys.stdout)
    writer.writerow(COMPARE_CSV_HEADER)
    for metric in ("final_loss", "final_accuracy", "mean_compression_ratio", "total_bytes"):
        a = summary_a[metric]
        b = summary_b[metric]
        delta = "" if a is None or b is None else repr(b - a)
        ratio = "" if a is None or b is None or b == 0 else repr(a / b)
        writer.writerow(
            [
                metric,
                "" if a is None else repr(a),
                "" if b is None else repr(b),
                delta,
                ratio,
            ]
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringprune",
        description="Run and compare pruned-gradient ring-training simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment from a config or manifest")
    run_parser.add_argument("config", help="path to a JSON config or run manifest")
    run_parser.add_argument("--seed", type=int, default=None, help="override training.seed")
    run_parser.add_argument("--out", default=None, help="override the output directory")
    run_parser.add_argument("--quiet", action="store_true", help="suppress progress output")

    compare_parser = sub.add_parser("compare", help="compare two finished runs")
    compare_parser.add_argument("run_dir_a")
    compare_parser.add_argument("run_dir_b")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, seed=args.seed, out=args.out, quiet=args.quiet)
        return cmd_compare(args.run_dir_a, args.run_dir_b)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
