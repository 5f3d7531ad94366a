"""Correctness checks on one benchmark run and across the runs of a workload.

Each check returns a list of failure messages; an empty list means it passed.
The checks take plain data (paths, LinkStats records, per-step logs) so the
benchmark's tests can feed them tampered runs.
"""

from __future__ import annotations

import csv
import math
from collections import Counter

# Wire constants of the protocol, restated here so that the analytic dense
# total does not follow a change to the program's own constants.
DENSE_VALUE_BYTES = 4
REDUCE_PHASES = ("scatter_reduce", "allgather")


def check_bandwidth_total(bandwidth_path, wire_bytes: int) -> list[str]:
    """bandwidth.csv must account for exactly the bytes the run reported."""
    with open(bandwidth_path, newline="") as fh:
        total = sum(int(row["bytes"]) for row in csv.DictReader(fh))
    if total != wire_bytes:
        return [f"bandwidth.csv sums to {total} bytes, run reported {wire_bytes}"]
    return []


def check_reduce_messages(records, n_nodes: int, n_steps: int) -> list[str]:
    """Every node sends exactly 2(N-1) reduce messages in every step."""
    sent = Counter((r[0], r[1]) for r in records if r[2] in REDUCE_PHASES)
    expected = 2 * (n_nodes - 1)
    failures = []
    for step in range(n_steps):
        for node in range(n_nodes):
            got = sent.get((step, node), 0)
            if got != expected:
                failures.append(
                    f"step {step} node {node} sent {got} reduce messages, expected {expected}"
                )
    extra = sorted(k for k in sent if not (0 <= k[0] < n_steps and 0 <= k[1] < n_nodes))
    if extra:
        failures.append(f"reduce messages outside the run's steps and nodes: {extra[:3]}")
    return failures


def dense_wire_bytes(n_nodes: int, padded_length: int, n_steps: int) -> int:
    """Analytic dense ring all-reduce total: 2(N-1) hops of the whole padded vector."""
    return n_steps * 2 * (n_nodes - 1) * padded_length * DENSE_VALUE_BYTES


def check_dense_bytes(wire_bytes: int, n_nodes: int, padded_length: int, n_steps: int) -> list[str]:
    expected = dense_wire_bytes(n_nodes, padded_length, n_steps)
    if wire_bytes != expected:
        return [f"dense run sent {wire_bytes} bytes, analytic total is {expected}"]
    return []


def check_sparsity(steps) -> list[str]:
    """Sparsity preservation on a pruned run.

    ``steps`` holds one dict per super-step with ``warmup`` (bool),
    ``shared_popcount``, ``length`` and ``support_ok`` (the reduced gradient's
    index set equals the shared mask's). Pruned steps must send less than
    everything, and no step may densify in the reduce.
    """
    failures = []
    pruned = [s for s in steps if not s["warmup"]]
    if not pruned:
        failures.append("pruned workload ran no pruned step")
    for s in pruned:
        if s["shared_popcount"] >= s["length"]:
            failures.append(f"pruned step {s['step']} has shared density 1")
    for s in steps:
        if not s["support_ok"]:
            failures.append(
                f"step {s['step']}: reduced gradient's index set differs from the shared mask"
            )
    return failures


def check_final_loss(loss: float) -> list[str]:
    if not math.isfinite(loss):
        return [f"final loss {loss} is not finite"]
    return []


def mismatched_digests(runs: list[tuple[int, dict]]) -> list[int]:
    """Indices of (seed, digests) runs whose output digests differ from those
    of the first run of the same seed."""
    first: dict[int, dict] = {}
    return [i for i, (seed, d) in enumerate(runs) if first.setdefault(seed, d) != d]
