"""``run_simulation_fast``: the former name of the optimized engine.

``fast`` is an alias of the fused engine (:mod:`repro.sim.fused_engine`);
this name stays importable because the benchmark harness
(``perfledger/workloads.py``) imports it.
"""

from repro.sim.fused_engine import run_simulation_fused as run_simulation_fast  # noqa: F401
