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
    GENESIS_ADDRESS,
    NIL_PARENT,
    UnknownBlockError,
    UnknownParentError,
    hash_header,
    make_genesis,
)
from .charts import emit_chart
from .engine import (
    FIXED,
    PRESETS,
    ProposalContext,
    RejectReason,
    SealerSnapshot,
    VULNERABLE,
    VerifyFlags,
    difficulty_for,
    leader_index,
    recents_window,
    signed_recently,
    snapshot_for_chain,
    verify_header,
    wiggle_delay,
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
    sealer_addresses,
)
from .simnet import DelayModel, NonConvergenceError, Simulation
from .strategies import ProposalPlan, SealerPolicy, plan_proposal
from .workload import Mempool, tx_batch_schedule

__version__ = "0.1.0"

__all__ = [
    "BlockHeader",
    "BlockRow",
    "ChainError",
    "ChainStore",
    "DelayModel",
    "DuplicateBlockError",
    "FIXED",
    "GENESIS_ADDRESS",
    "Mempool",
    "NIL_PARENT",
    "NonConvergenceError",
    "PRESETS",
    "ParseError",
    "ProposalContext",
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
    "difficulty_for",
    "emit_chart",
    "export_block_log",
    "hash_header",
    "leader_index",
    "load_scenario",
    "make_genesis",
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
    "verify_header",
    "wiggle_delay",
]
