"""Each ablation seed's trace is built once, however many cells read it."""

from repro.config import small_test_config
from repro.dram.refresh import RandomRefresh
from repro.sim.sweep import refresh_mapping_ablation
from repro.traces.mixer import paper_mixed_workload


def test_refresh_mapping_ablation_builds_each_seed_trace_once():
    config = small_test_config(num_banks=2)
    built = []

    def trace_factory(seed):
        built.append(seed)
        return paper_mixed_workload(config, total_intervals=16, seed=seed)

    seeds = (0, 1)
    assumed, exact = refresh_mapping_ablation(
        config, trace_factory,
        lambda seed: RandomRefresh(config.geometry, seed=seed), seeds=seeds,
    )
    assert len(built) == len(seeds)
    assert len(assumed.results) == len(exact.results) == len(seeds)
