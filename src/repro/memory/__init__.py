"""Memory-model substrate: SC, TSO, Promising Arm, and push/pull Promising.

See DESIGN.md ("Memory-model fidelity notes") for how these relate to
the models in the paper.
"""

from repro.memory.datatypes import (
    Behavior,
    EngineStats,
    ExplorationMonitor,
    ExplorationResult,
    Fault,
    Message,
    last_write_ts,
    latest_write_ts,
    value_at,
)
from repro.memory.semantics import (
    MODEL_NAMES,
    PROMISING_ARM,
    PUSH_PULL_PROMISING,
    PUSH_PULL_SC,
    SC,
    TSO,
    CertMemo,
    ModelConfig,
    cert_memo_enabled,
    env_model,
    resolve_model,
)
from repro.memory.exploration import explore, explore_or_raise
from repro.memory.cache import cached_explore, clear_memory_cache
from repro.memory.por import PORPlan, por_worthwhile
from repro.memory.state import StateInterner
from repro.memory.behaviors import (
    BehaviorComparison,
    admits,
    compare_models,
    parse_register_key,
)
from repro.memory.sc import explore_sc
from repro.memory.promising import explore_promising
from repro.memory.tso import explore_tso
from repro.memory.pushpull import explore_pushpull, pushpull_config
from repro.memory.trace import (
    ExecutionTrace,
    TraceEvent,
    explain_outcome,
    find_execution,
)
from repro.memory.sampling import sample_behaviors

__all__ = [
    "Behavior",
    "CertMemo",
    "EngineStats",
    "ExplorationMonitor",
    "ExplorationResult",
    "Fault",
    "Message",
    "last_write_ts",
    "latest_write_ts",
    "value_at",
    "MODEL_NAMES",
    "PROMISING_ARM",
    "PUSH_PULL_PROMISING",
    "PUSH_PULL_SC",
    "SC",
    "TSO",
    "ModelConfig",
    "cert_memo_enabled",
    "env_model",
    "resolve_model",
    "explore",
    "explore_or_raise",
    "cached_explore",
    "clear_memory_cache",
    "PORPlan",
    "por_worthwhile",
    "StateInterner",
    "BehaviorComparison",
    "admits",
    "compare_models",
    "parse_register_key",
    "explore_sc",
    "explore_promising",
    "explore_tso",
    "explore_pushpull",
    "pushpull_config",
    "ExecutionTrace",
    "TraceEvent",
    "explain_outcome",
    "find_execution",
    "sample_behaviors",
]
