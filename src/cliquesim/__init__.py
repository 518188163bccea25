"""Deterministic discrete-event simulator of Clique-style PoA sealing.

The library models a small committee of sealers rotating block production,
a frontrunning sealer that falsifies its priority parameters, and the
verification pipeline whose per-check flags decide whether that attack
succeeds. Runs are fully reproducible from a scenario seed.
"""

from .chain import (
    BlockHeader,
    ChainError,
    ChainStore,
    DuplicateBlockError,
    GENESIS,
    GENESIS_ADDRESS,
    NIL_PARENT,
    UnknownBlockError,
    UnknownParentError,
    hash_header,
)
from .charts import emit_chart
from .engine import (
    FIXED,
    PRESETS,
    RejectReason,
    SealerSnapshot,
    VULNERABLE,
    VerifyFlags,
    leader_index,
    recents_window,
    signed_recently,
    snapshot_for_chain,
    uniform_draws,
    verify_header,
    wiggle_draws,
)
from .harness import (
    BlockRow,
    ParseError,
    RunReport,
    ScenarioConfig,
    ScenarioError,
    SealerSpec,
    ValidationError,
    build_simulation,
    export_block_log,
    load_scenario,
    parse_scenario,
    preset_config,
    preset_text,
    run_scenario,
    run_sweep,
)
from .simnet import NonConvergenceError, Simulation, sealer_addresses
from .strategies import FRONTRUNNER, HONEST, ProposalPlan, SealerPolicy, plan_proposal
from .workload import Mempool, tx_batch_schedule

__version__ = "0.1.0"

__all__ = [
    "BlockHeader",
    "BlockRow",
    "ChainError",
    "ChainStore",
    "DuplicateBlockError",
    "FIXED",
    "FRONTRUNNER",
    "GENESIS",
    "GENESIS_ADDRESS",
    "HONEST",
    "Mempool",
    "NIL_PARENT",
    "NonConvergenceError",
    "PRESETS",
    "ParseError",
    "ProposalPlan",
    "RejectReason",
    "RunReport",
    "ScenarioConfig",
    "ScenarioError",
    "SealerPolicy",
    "SealerSnapshot",
    "SealerSpec",
    "Simulation",
    "UnknownBlockError",
    "UnknownParentError",
    "VULNERABLE",
    "ValidationError",
    "VerifyFlags",
    "build_simulation",
    "emit_chart",
    "export_block_log",
    "hash_header",
    "leader_index",
    "load_scenario",
    "parse_scenario",
    "plan_proposal",
    "preset_config",
    "preset_text",
    "recents_window",
    "run_scenario",
    "run_sweep",
    "sealer_addresses",
    "signed_recently",
    "snapshot_for_chain",
    "tx_batch_schedule",
    "uniform_draws",
    "verify_header",
    "wiggle_draws",
]
