"""Reference benchmark configuration shared by the test suite and scripts.

The benchmark instantiates the group-supervision problem at desk scale:
20 classes, 200 groups, 32-dimensional features, a fifth of the instances
background (null) and a fifth with displaced labels, distractor pressure
tuned so the mean ambiguity ratio lands between 0.4 and 0.6.  Feature
scales are chosen so the distance conventions eps = 1 / threshold = 1
separate same-class from cross-class pairs, mirroring unit-scale embedding
spaces.  The generator and graph sections are the config defaults; the
model is a smaller one than the default.
"""

from __future__ import annotations

from dataclasses import replace

from .data import GeneratorConfig
from .model import ModelConfig
from .pipeline import GraphConfig, RunConfig, RunResult, execute

BENCHMARK_SEEDS = (0, 1, 2, 3, 4)


def benchmark_generator_config(seed: int, cross_rate: float = 0.2) -> GeneratorConfig:
    return replace(GeneratorConfig(), rng_seed=seed, cross_rate=cross_rate)


def benchmark_graph_config() -> GraphConfig:
    return GraphConfig()


def benchmark_model_config(seed: int, variant: str = "full") -> ModelConfig:
    return ModelConfig(
        gcn_hidden=32,
        dense_hidden=8,
        num_heads=2,
        epochs=1000,
        lr=1e-3,
        seed=seed,
        variant=variant,
    )


def run_benchmark_seed(seed: int, variant: str = "full", cross_rate: float = 0.2) -> RunResult:
    """One benchmark run through ``pipeline.execute``.

    The generator and model seeds are ``seed`` itself, not derived from it
    as ``RunConfig.resolved`` would, so the benchmark datasets and initial
    parameters stay those the acceptance thresholds were set on.
    """
    return execute(
        RunConfig(
            seed=seed,
            generator=benchmark_generator_config(seed, cross_rate=cross_rate),
            graph=benchmark_graph_config(),
            model=benchmark_model_config(seed, variant=variant),
        )
    )
