"""Tests for the parallel campaign runner."""

import pytest

from repro.config import small_test_config
from repro.sim.executors import CampaignJob, _run_job
from repro.sim.parallel import parallel_map, run_campaign


def _square(value):
    return value * value


class TestJob:
    def test_job_is_picklable(self):
        import pickle

        job = CampaignJob(
            config=small_test_config(),
            technique="PARA",
            seed=0,
            total_intervals=8,
        )
        assert pickle.loads(pickle.dumps(job)).technique == "PARA"

    def test_run_job_inline(self):
        job = CampaignJob(
            config=small_test_config(num_banks=2),
            technique="PARA",
            seed=0,
            total_intervals=8,
        )
        name, seed, result, metrics, spans = _run_job(job)
        assert name == "PARA"
        assert result.normal_activations > 0
        assert metrics is None  # collect_metrics defaults off
        assert spans is None  # collect_spans defaults off


class TestCampaign:
    def test_inline_campaign_aggregates(self):
        config = small_test_config(num_banks=2)
        aggregates = run_campaign(
            config,
            total_intervals=8,
            techniques=("PARA", "TWiCe"),
            seeds=(0, 1),
            include_unmitigated=True,
            workers=0,
        )
        assert set(aggregates) == {"none", "PARA", "TWiCe"}
        assert len(aggregates["PARA"].results) == 2

    def test_parallel_matches_inline(self):
        config = small_test_config(num_banks=2)
        kwargs = dict(
            total_intervals=8, techniques=("PARA",), seeds=(0, 1)
        )
        inline = run_campaign(config, workers=0, **kwargs)
        pooled = run_campaign(config, workers=2, **kwargs)
        inline_extras = sorted(
            result.extra_activations for result in inline["PARA"].results
        )
        pooled_extras = sorted(
            result.extra_activations for result in pooled["PARA"].results
        )
        assert inline_extras == pooled_extras

    def test_workload_kwargs_forwarded(self):
        config = small_test_config(num_banks=2)
        aggregates = run_campaign(
            config,
            total_intervals=8,
            techniques=("PARA",),
            seeds=(0,),
            workers=0,
            max_aggressors=5,
        )
        result = aggregates["PARA"].results[0]
        assert result.normal_activations > 0


class TestParallelMap:
    def test_inline_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], workers=0) == [9, 1, 4]

    def test_pool_matches_inline(self):
        items = list(range(23))
        inline = parallel_map(_square, items, workers=0)
        pooled = parallel_map(_square, items, workers=2, chunk_size=4)
        assert pooled == inline

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=0) == []
        assert parallel_map(_square, [], workers=2) == []

    def test_progress_reports_monotonic_completion(self):
        seen = []
        parallel_map(_square, list(range(10)), workers=2, chunk_size=3,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (10, 10)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    def test_inline_progress_fires_per_item(self):
        seen = []
        parallel_map(_square, [1, 2, 3], workers=0,
                     progress=lambda done, total: seen.append(done))
        assert seen == [1, 2, 3]


class TestRetryPolicy:
    def test_delay_schedule_is_exponential_and_capped(self):
        from repro.sim.parallel import RetryPolicy

        policy = RetryPolicy(
            max_retries=5, backoff_base=0.5, backoff_factor=2.0,
            backoff_cap=3.0,
        )
        assert [policy.delay(r) for r in (1, 2, 3, 4)] == [0.5, 1.0, 2.0, 3.0]

    def test_rejects_unknown_failure_mode(self):
        from repro.sim.parallel import RetryPolicy

        with pytest.raises(ValueError, match="on_failure"):
            RetryPolicy(on_failure="retry-forever")


class TestFaultTolerance:
    """FaultInjector-driven retry, backoff, and degraded-shard handling."""

    def campaign(self, injector, retry, metrics=None, sleep=None, workers=0):
        from repro.sim.parallel import run_campaign

        return run_campaign(
            small_test_config(num_banks=2),
            total_intervals=8,
            techniques=("PARA", "TWiCe"),
            seeds=(0, 1),
            workers=workers,
            retry=retry,
            fault_injector=injector,
            metrics=metrics,
            sleep=sleep if sleep is not None else (lambda seconds: None),
        )

    def test_transient_error_retried_to_success(self):
        from repro.campaign.faults import FaultInjector
        from repro.sim.parallel import RetryPolicy
        from repro.telemetry.metrics import MetricsRegistry

        injector = FaultInjector.from_rules(
            [{"mode": "error", "technique": "PARA", "seed": 1,
              "attempts": [0]}]
        )
        metrics = MetricsRegistry()
        aggregates = self.campaign(
            injector, RetryPolicy(max_retries=2), metrics=metrics
        )
        assert not aggregates.failures
        assert len(aggregates["PARA"].results) == 2
        counters = metrics.as_dict()["counters"]
        assert counters["campaign.shard_errors"]["value"] == 1
        assert counters["campaign.shard_retries"]["value"] == 1

    def test_backoff_uses_policy_schedule(self):
        from repro.campaign.faults import FaultInjector
        from repro.sim.parallel import RetryPolicy

        injector = FaultInjector.from_rules(
            [{"mode": "error", "technique": "PARA", "seed": 0,
              "attempts": [0, 1]}]
        )
        sleeps = []
        self.campaign(
            injector,
            RetryPolicy(max_retries=2, backoff_base=0.5, backoff_factor=2.0),
            sleep=sleeps.append,
        )
        assert sleeps == [0.5, 1.0]

    def test_on_failure_raise_propagates_original_exception(self):
        from repro.campaign.faults import FaultInjector, InjectedFault
        from repro.sim.parallel import RetryPolicy

        injector = FaultInjector.from_rules(
            [{"mode": "error", "technique": "TWiCe", "seed": 0}]
        )
        with pytest.raises(InjectedFault, match="TWiCe/seed=0"):
            self.campaign(
                injector, RetryPolicy(max_retries=1, on_failure="raise")
            )

    def test_on_failure_skip_records_degraded_shard(self):
        from repro.campaign.faults import FaultInjector
        from repro.sim.parallel import RetryPolicy
        from repro.telemetry.metrics import MetricsRegistry

        injector = FaultInjector.from_rules(
            [{"mode": "error", "technique": "PARA", "seed": 1}]
        )
        metrics = MetricsRegistry()
        aggregates = self.campaign(
            injector,
            RetryPolicy(max_retries=2, on_failure="skip"),
            metrics=metrics,
        )
        assert aggregates.degraded
        (failure,) = aggregates.failures
        assert (failure.technique, failure.seed) == ("PARA", 1)
        assert failure.attempts == 3
        assert failure.kind == "error"
        assert aggregates["PARA"].degraded_seeds == [1]
        assert "DEGRADED" in aggregates["PARA"].summary()
        counters = metrics.as_dict()["counters"]
        assert counters["campaign.shards_degraded"]["value"] == 1
        assert counters["campaign.shards_completed"]["value"] == 3

    def test_pool_crash_retried_and_matches_inline(self):
        from repro.campaign.faults import FaultInjector
        from repro.sim.parallel import RetryPolicy, run_campaign

        injector = FaultInjector.from_rules(
            [{"mode": "crash", "technique": "PARA", "seed": 0,
              "attempts": [0]}]
        )
        kwargs = dict(
            total_intervals=8, techniques=("PARA",), seeds=(0, 1)
        )
        config = small_test_config(num_banks=2)
        pooled = run_campaign(
            config, workers=2,
            retry=RetryPolicy(max_retries=3, backoff_base=0.01),
            fault_injector=injector, **kwargs,
        )
        inline = run_campaign(config, workers=0, **kwargs)
        assert not pooled.failures
        pooled_extras = sorted(
            result.extra_activations for result in pooled["PARA"].results
        )
        inline_extras = sorted(
            result.extra_activations for result in inline["PARA"].results
        )
        assert pooled_extras == inline_extras

    def test_pool_hang_times_out_and_degrades(self):
        from repro.campaign.faults import FaultInjector
        from repro.sim.parallel import RetryPolicy, run_campaign
        from repro.telemetry.metrics import MetricsRegistry

        injector = FaultInjector.from_rules(
            [{"mode": "hang", "technique": "PARA", "seed": 0, "seconds": 60}]
        )
        metrics = MetricsRegistry()
        aggregates = run_campaign(
            small_test_config(num_banks=2),
            total_intervals=8,
            techniques=("PARA",),
            seeds=(0,),
            workers=1,
            retry=RetryPolicy(
                max_retries=0, shard_timeout=0.3, on_failure="skip"
            ),
            fault_injector=injector,
            metrics=metrics,
        )
        (failure,) = aggregates.failures
        assert failure.kind == "timeout"
        counters = metrics.as_dict()["counters"]
        assert counters["campaign.shard_timeouts"]["value"] == 1
