"""The benchmark's workloads: configs, stage lists and the layer each should stress.

Every workload runs generate, train, eval and verify, so every end-to-end
metric exists on every workload; ``ablate-mix`` adds the ablate stage. The
train stages cover the base losses: gcl on ``ref-pipeline``, imsep on
``ablate-mix`` and cl on ``data-io``; ablate trains all six variants, gcl
and the ablation losses included. The config seed is the benchmark seed
modulo ``REFERENCE_SEEDS``, the number of seeds whose outputs are recorded
in ``reference.json``.

Why each workload exists is recorded in BENCHMARK.json. This module imports
nothing heavy: the benchmark loads it before it pins the BLAS/OpenMP
thread pools.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEEDS = 16

# Modules of src/gcl_lab whose public functions the traced run wraps.
MODULES = (
    "synth",
    "embeddings",
    "encoders",
    "losses",
    "optim",
    "training",
    "evaluation",
    "diagnostics",
    "experiment",
)

BASE_STAGES = ("generate", "train", "eval", "verify")

# The nine retrieval tasks times the global and local pools.
RANKINGS_PER_QUERY = 18


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    stages: tuple[str, ...]
    dominant_module: str

    def experiment_config(self, bench_seed: int) -> dict:
        return {"seed": bench_seed % REFERENCE_SEEDS, **self.config}

    @property
    def train_pairs_per_run(self) -> int:
        data, train = self.config["data"], self.config["train"]
        return (data["n_pairs"] // train["batch_size"]) * train["epochs"] * train["batch_size"]

    @property
    def eval_rankings(self) -> int:
        return self.config["data"]["eval_pairs"] // 2 * RANKINGS_PER_QUERY


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-pipeline",
            config={
                "variant": "gcl",
                "data": {"n_pairs": 5000, "eval_pairs": 1000, "d_in": 32},
                "train": {"d_out": 16, "batch_size": 128, "epochs": 3, "denominator_mode": "algorithm_masked"},
            },
            stages=BASE_STAGES,
            dominant_module="evaluation",
        ),
        Workload(
            name="ablate-mix",
            config={
                "variant": "imsep",
                "data": {"n_pairs": 4096, "eval_pairs": 200, "d_in": 32},
                "train": {"d_out": 16, "batch_size": 512, "epochs": 2, "denominator_mode": "equation_literal"},
            },
            stages=BASE_STAGES + ("ablate",),
            dominant_module="losses",
        ),
        Workload(
            name="data-io",
            config={
                "variant": "cl",
                "data": {"n_pairs": 100000, "eval_pairs": 200, "d_in": 32},
                "train": {"d_out": 16, "batch_size": 128, "epochs": 1},
            },
            stages=BASE_STAGES,
            dominant_module="synth",
        ),
    )
}
