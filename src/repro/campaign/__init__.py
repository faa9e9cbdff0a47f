"""Durable, fault-tolerant campaign orchestration.

Long (paper-scale) campaigns checkpoint every completed shard to a
directory and can be killed and resumed without losing or changing any
result -- see ``docs/campaigns.md`` for the checkpoint layout, resume
semantics, and failure policies.

Public surface:

* :func:`run_durable_campaign` -- checkpointed/resumable wrapper
  around :func:`repro.sim.parallel.run_campaign`;
* :class:`CampaignStore` / :class:`CampaignSpec` -- the checkpoint
  persistence layer, which stores one
  :class:`~repro.sim.executors.ShardRecord` per completed shard;
* :class:`FaultInjector` -- deterministic crash/hang/error injection
  for fault-tolerance tests (never active unless explicitly supplied
  or set through ``REPRO_FAULT_INJECT``);
* :class:`QueueExecutor` / :func:`run_worker` / :class:`WorkQueue` --
  the distributed lane: campaigns over a shared filesystem work queue
  drained by ``repro campaign-worker`` processes on any host (see
  ``docs/distributed.md``).
"""

from repro.campaign.faults import (
    CRASH_EXIT_CODE,
    FAULT_ENV_VAR,
    FaultInjector,
    FaultRule,
    InjectedFault,
    SimulatedCrash,
)
from repro.campaign.queue import (
    DEFAULT_LEASE_TIMEOUT_S,
    QueueExecutor,
    RemoteShardError,
    ShardTicket,
    WorkQueue,
    run_worker,
)
from repro.campaign.runner import run_durable_campaign
from repro.campaign.store import (
    CampaignSpec,
    CampaignStateError,
    CampaignStatus,
    CampaignStore,
    CheckpointMismatchError,
)
from repro.sim.executors import ShardRecord

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_ENV_VAR",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "SimulatedCrash",
    "run_durable_campaign",
    "CampaignSpec",
    "CampaignStateError",
    "CampaignStatus",
    "CampaignStore",
    "CheckpointMismatchError",
    "ShardRecord",
    "DEFAULT_LEASE_TIMEOUT_S",
    "QueueExecutor",
    "RemoteShardError",
    "ShardTicket",
    "WorkQueue",
    "run_worker",
]
