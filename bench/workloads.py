"""The benchmark's three input sets, each a deterministic function of a seed.

Every workload runs the same job on every input; they differ only in the
inputs, so each layer does most of its work in one workload and little in
another.

- long_dense: 8 sequences of 20,000 symbols from the README's low-order
  source (k = 3, alpha = 0.4). 64 contexts, so numpy kernels and the
  per-symbol loops of generate and the codec dominate and per-call overhead
  does not.
- deep_sparse: 24 sequences of 10,000 symbols from a high-order, lightly
  smoothed source (k = 8, alpha = 0.05). Thousands of rarely seen contexts
  per sequence: large count tables, many alpha-fit rows, large codec
  dictionaries and many floored events in the grid's alpha = 0 column.
  Two-step picks k* = 6 here while the grid picks 8.
- study_short: the first 120 pairs of the desk exp2 study at T = 1e3,
  seeded as the study seeds them. Hundreds of small calls, where fixed
  per-call cost dominates: 1,010 lattice charges per grid, 10 profile lags
  and codec set-up per sequence.

Each workload is several sequences because one sequence's bitrate moves
with the seed: the adaptive source settles every context on its own random
distribution (at k = 3 one sequence's bitrate has a coefficient of variation
of 6-11% over seeds), and at k = 8, alpha = 0.05 some sequences fall into
low-entropy cycles. The sequences are short enough that a run repeats the
job on them several times, which the timing needs.
"""

from __future__ import annotations

from dataclasses import dataclass

STUDY_PAIRS = 120
STUDY_T_IDX = 0  # the first length of the desk exp2 t_set, 1e3


@dataclass(frozen=True)
class Input:
    """One sequence to generate: source order, smoothing, length and seed."""

    k: int
    alpha: float
    length: int
    seed: int


def plan(workload: str, seed: int, simharness) -> list[Input]:
    """The inputs of one workload at one seed."""
    if workload == "long_dense":
        return [Input(3, 0.4, 20_000, simharness.derive_seed(seed, 1, i)) for i in range(8)]
    if workload == "deep_sparse":
        return [Input(8, 0.05, 10_000, simharness.derive_seed(seed, 2, i)) for i in range(24)]
    if workload == "study_short":
        # as simharness._exp2_item seeds replica `rep` at t_set[t_idx]
        config = simharness.desk_config("exp2_pipeline", seed)
        pairs = simharness.sample_pairs(config)[:STUDY_PAIRS]
        t = config.t_set[STUDY_T_IDX]
        return [Input(k, alpha, t, simharness.derive_seed(seed, 3, rep, STUDY_T_IDX))
                for rep, (k, alpha) in enumerate(pairs)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("long_dense", "deep_sparse", "study_short")
