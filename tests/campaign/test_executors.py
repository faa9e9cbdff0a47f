"""The executor contract suite: every lane owes the same guarantees.

One parametrized pass over the registered execution lanes (serial,
local pool, filesystem queue) asserting the contract spelled out in
``repro.sim.executors`` and ``docs/distributed.md``: bit-identical
aggregates against a serial baseline, streaming shard/progress
callbacks, retry healing, degraded-shard accounting parity, and the
durable-campaign guarantees (checkpointing, resume) holding
per-executor -- aggregates, callbacks and resume under both fused-block
and per-cell dispatch.  A lane that cannot honor one of these must not ship.
"""

import pytest

from repro.campaign import (
    CampaignStore,
    FaultInjector,
    QueueExecutor,
    run_durable_campaign,
)
from repro.config import small_test_config
from repro.sim.executors import get_executor
from repro.sim.parallel import RetryPolicy, run_campaign
from repro.telemetry.metrics import MetricsRegistry

TECHNIQUES = ("PARA", "TWiCe")
SEEDS = (0, 1)
TOTAL_SHARDS = len(TECHNIQUES) * len(SEEDS)

LANES = ("serial", "pool", "queue")

#: (lane, dispatch) pairs.  The campaigns below run the ``fast`` alias of
#: the fused engine, so they dispatch one fused block per seed
#: (``execute_blocks``) unless a retry policy forces per-cell shards
#: (``execute``); the block case keeps the lane's bare id.
DISPATCHES = [
    pytest.param(lane, dispatch, id=lane if dispatch == "blocks" else
                 f"{lane}-per_cell")
    for lane in LANES
    for dispatch in ("blocks", "per_cell")
]


def dispatch_kwargs(dispatch):
    """Campaign arguments selecting block or per-cell dispatch."""
    return {"retry": RetryPolicy()} if dispatch == "per_cell" else {}


def canonical(aggregates):
    """Bit-exact comparable view of campaign aggregates."""
    return {
        name: [result.as_dict() for result in aggregate.results]
        for name, aggregate in aggregates.items()
    }


def make_executor(lane, tmp_path):
    """One configured executor per lane; queue gets a private directory
    and two spawned local workers so the test is self-contained."""
    if lane == "queue":
        return QueueExecutor(
            tmp_path / "queue", workers=2, lease_timeout=30.0,
            poll_interval=0.05,
        )
    return lane


def campaign(config, lane, tmp_path, **kwargs):
    kwargs.setdefault("techniques", TECHNIQUES)
    kwargs.setdefault("seeds", SEEDS)
    kwargs.setdefault("engine", "fast")
    return run_campaign(
        config, 8, workers=kwargs.pop("workers", 2),
        executor=make_executor(lane, tmp_path), **kwargs,
    )


@pytest.fixture(scope="module")
def baseline():
    """Serial reference aggregates every lane must reproduce exactly."""
    config = small_test_config(num_banks=2)
    return canonical(run_campaign(
        config, 8, techniques=TECHNIQUES, seeds=SEEDS, workers=0,
        engine="fast",
    ))


class TestExecutorContract:
    @pytest.mark.parametrize("lane, dispatch", DISPATCHES)
    def test_bit_identical_aggregates(
        self, lane, dispatch, tmp_path, baseline
    ):
        config = small_test_config(num_banks=2)
        assert canonical(campaign(
            config, lane, tmp_path, **dispatch_kwargs(dispatch)
        )) == baseline

    @pytest.mark.parametrize("lane, dispatch", DISPATCHES)
    def test_streaming_callbacks(self, lane, dispatch, tmp_path):
        """Shard and progress callbacks fire per shard as results land,
        and the final progress frame covers the whole grid."""
        config = small_test_config(num_banks=2)
        landed = []
        frames = []
        campaign(
            config, lane, tmp_path,
            shard_callback=lambda outcome, attempts: landed.append(
                (outcome[0], outcome[1], attempts)
            ),
            progress=lambda done, total: frames.append((done, total)),
            **dispatch_kwargs(dispatch),
        )
        assert sorted((name, seed) for name, seed, _ in landed) == sorted(
            (name, seed) for name in TECHNIQUES for seed in SEEDS
        )
        assert all(attempts == 1 for _, _, attempts in landed)
        assert frames[-1] == (TOTAL_SHARDS, TOTAL_SHARDS)

    @pytest.mark.parametrize("lane", LANES)
    def test_retry_heals_transient_fault(self, lane, tmp_path, baseline):
        """A shard that fails its first attempt only is retried to
        success: aggregates stay bit-identical and nothing degrades."""
        config = small_test_config(num_banks=2)
        injector = FaultInjector.from_rules([{
            "mode": "error", "technique": "PARA", "seed": 1,
            "attempts": [0],
        }])
        metrics = MetricsRegistry()
        healed = campaign(
            config, lane, tmp_path,
            retry=RetryPolicy(max_retries=2, backoff_base=0),
            fault_injector=injector, sleep=lambda seconds: None,
            metrics=metrics,
        )
        assert canonical(healed) == baseline
        assert not healed.failures
        counters = metrics.as_dict()["counters"]
        assert counters["campaign.shard_errors"]["value"] == 1
        assert counters["campaign.shard_retries"]["value"] == 1

    @pytest.mark.parametrize("lane", LANES)
    def test_degraded_accounting_parity(self, lane, tmp_path):
        """Exhausted shards degrade identically on every lane: same
        failure record, same degraded seed, same fault counters."""
        config = small_test_config(num_banks=2)
        injector = FaultInjector.from_rules([
            {"mode": "error", "technique": "PARA", "seed": 1}
        ])
        metrics = MetricsRegistry()
        degraded = campaign(
            config, lane, tmp_path,
            retry=RetryPolicy(max_retries=1, backoff_base=0,
                              on_failure="skip"),
            fault_injector=injector, sleep=lambda seconds: None,
            metrics=metrics,
        )
        assert degraded["PARA"].degraded_seeds == [1]
        assert len(degraded.failures) == 1
        failure = degraded.failures[0]
        assert (failure.technique, failure.seed) == ("PARA", 1)
        assert failure.attempts == 2
        assert failure.kind == "error"
        counters = metrics.as_dict()["counters"]
        assert counters["campaign.shard_errors"]["value"] == 2
        assert counters["campaign.shard_retries"]["value"] == 1
        assert counters["campaign.shards_degraded"]["value"] == 1
        # the healthy shards are untouched by the degraded one
        healthy = canonical(degraded)
        healthy.pop("PARA")
        reference = canonical(run_campaign(
            config, 8, techniques=("TWiCe",), seeds=SEEDS, workers=0,
            engine="fast",
        ))
        assert healthy == reference

    @pytest.mark.parametrize("lane, dispatch", DISPATCHES)
    def test_durable_campaign_and_resume(self, lane, dispatch, tmp_path):
        """The durability invariants hold per-executor: shards are
        checkpointed as they land, a deleted shard is recomputed on
        resume, and the rebuilt aggregates are bit-identical."""
        config = small_test_config(num_banks=2)
        ckpt = tmp_path / "ckpt"
        first = run_durable_campaign(
            config, 8, ckpt, techniques=TECHNIQUES, seeds=SEEDS,
            workers=2, engine="fast",
            executor=make_executor(lane, tmp_path),
            **dispatch_kwargs(dispatch),
        )
        store = CampaignStore(ckpt)
        assert store.status().complete
        store.shard_path("PARA", 1).unlink()
        resumed = run_durable_campaign(
            config, 8, ckpt, resume=True, techniques=TECHNIQUES,
            seeds=SEEDS, workers=2, engine="fast",
            executor=make_executor(lane, tmp_path / "again"),
            **dispatch_kwargs(dispatch),
        )
        assert canonical(resumed) == canonical(first)
        assert store.status().complete


class TestGetExecutor:
    def test_auto_follows_workers(self):
        assert get_executor(None, workers=0).name == "serial"
        assert get_executor("auto", workers=2).name == "pool"

    def test_instances_pass_through(self, tmp_path):
        executor = QueueExecutor(tmp_path / "q")
        assert get_executor(executor) is executor

    def test_bare_queue_name_needs_a_directory(self):
        with pytest.raises(ValueError, match="queue directory"):
            get_executor("queue")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("carrier-pigeon")

    def test_pool_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="positive worker count"):
            get_executor("pool", workers=0)


class TestPoolSubmitRace:
    """A crash can break the pool while jobs are still being submitted:
    the submit that raises fails its own job, not the whole dispatch."""

    @staticmethod
    def break_second_submit(monkeypatch):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        submit = ProcessPoolExecutor.submit
        calls = []

        def flaky(self, fn, *args, **kwargs):
            calls.append(fn)
            if len(calls) == 2:
                raise BrokenProcessPool("pool broke mid-submit")
            return submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", flaky)
        return calls

    def test_round_retries_the_job_whose_submit_raised(
        self, monkeypatch, tmp_path, baseline
    ):
        calls = self.break_second_submit(monkeypatch)
        metrics = MetricsRegistry()
        healed = campaign(
            small_test_config(num_banks=2), "pool", tmp_path,
            retry=RetryPolicy(max_retries=1, backoff_base=0),
            sleep=lambda seconds: None, metrics=metrics,
        )
        assert canonical(healed) == baseline
        assert not healed.failures
        # one round of four submits, then one retry round of one
        assert len(calls) == TOTAL_SHARDS + 1
        counters = metrics.as_dict()["counters"]
        assert counters["campaign.shard_crashes"]["value"] == 1
        assert counters["campaign.shard_retries"]["value"] == 1

    def test_block_whose_submit_raised_fails_like_a_crash(
        self, monkeypatch, tmp_path, baseline
    ):
        from concurrent.futures.process import BrokenProcessPool

        config = small_test_config(num_banks=2)
        kwargs = dict(
            techniques=TECHNIQUES, seeds=SEEDS, workers=2, engine="fast",
            executor="pool", publish_status=False,
        )
        ckpt = tmp_path / "ckpt"
        with monkeypatch.context() as patch:
            self.break_second_submit(patch)
            with pytest.raises(BrokenProcessPool):
                run_durable_campaign(config, 8, ckpt, **kwargs)
        resumed = run_durable_campaign(config, 8, ckpt, resume=True, **kwargs)
        assert canonical(resumed) == baseline
