"""Benchmark workloads, each a ringprune experiment config generated from a seed.

The seed drives ``task.data_seed``, ``training.seed`` and
``mask_agreement.shared_seed``; everything else is fixed per workload. The
program under test only ever receives the generated config.

Why these three:

* ``ring64-pruned``: 64 nodes on a small model. Ring hop simulation,
  per-message accounting and per-node Python overhead dominate, so a ring or
  accounting optimisation shows here.
* ``wide4-pruned``: 4 nodes on a wide model (P = 70,660). Per-element numpy
  work in ``tasks``, ``importance`` and ``codec`` dominates and the ring does
  little, so a ring optimisation should show no change here.
* ``dense64``: the dense mode at the same N, batch and model as
  ``ring64-pruned``. It runs the ring's dense path and skips ``importance``,
  ``codec`` and agreement, so changes to those should show no change here.

Both pruned workloads hold one warm-up epoch (every entry sent) followed by
pruned epochs, so a wire-format change that helps one kind of step and costs
the other shows up in the warm-up/pruned split.

A benchmark seed stands for a panel of ``PANEL_SIZE`` run seeds. The exact
metrics (wire bytes, final loss) differ from one run seed to the next by a
few percent; their mean over a panel varies far less between benchmark seeds,
so their bounds can be tight.
"""

from __future__ import annotations

from typing import NamedTuple

DEFAULT_SEED = 1
PANEL_SIZE = 16


def panel_seeds(seed: int) -> list[int]:
    """The run seeds of benchmark seed ``seed``; distinct seeds share none."""
    return [seed * PANEL_SIZE + j for j in range(PANEL_SIZE)]


class Workload(NamedTuple):
    mode: str
    shape: dict
    n_nodes: int
    batch_size: int
    epochs: int


_SMALL_MLP = {"n_features": 20, "hidden_units": 48}
_WIDE_MLP = {"n_features": 64, "hidden_units": 1024}

WORKLOADS = {
    "ring64-pruned": Workload("compressed", _SMALL_MLP, 64, 8, 8),
    "wide4-pruned": Workload("compressed", _WIDE_MLP, 4, 64, 4),
    "dense64": Workload("dense", _SMALL_MLP, 64, 8, 8),
}


def build_config(name: str, seed: int) -> dict:
    """The raw ringprune config for workload ``name`` under ``seed``."""
    w = WORKLOADS[name]
    return {
        "task": {
            "kind": "mlp_classification_synthetic",
            "n_samples": 2048,
            "n_classes": 4,
            **w.shape,
            "data_seed": seed,
        },
        "training": {
            "momentum": 0.9,
            "learning_rate": 0.1,
            "batch_size": w.batch_size,
            "n_nodes": w.n_nodes,
            "seed": seed,
            "epochs": w.epochs,
        },
        "threshold": {"base": 0.01, "warmup_epochs": 1},
        "mask_agreement": {"n_selected_nodes": 2, "shared_seed": seed},
        "mode": w.mode,
    }
