"""Scripted gaze-reasoning pipeline: scenarios, marking, prompts, backends.

The pipeline consumes scenario files (pre-annotated interaction streams),
whose loader keeps each cycle's candidate instances in mark order. It
synthesizes a prompt per cycle, queries a pluggable language-model
backend, parses the selected mark, and localizes it to a 3D point in the
robot base frame. `replay` scores scenario runs with the two-cycle
correctness window and holds the offline backends.

The remote backend's module, `backends`, is registered here as a lazy
module: it runs on first attribute access, so a scripted or oracle replay
never compiles the HTTP transport. Import `RemoteBackend`, `RemoteConfig`
and `build_request` from `gazeshift.reasoner.backends`.
"""

from .. import _register_lazy

from .scenario import (
    SCENARIO_SCHEMA,
    SCENARIO_VERSION,
    CameraIntrinsics,
    Instance,
    RigidTransform,
    Scenario,
    ScenarioCycle,
    load_scenario,
    load_scenario_dir,
)
from .pipeline import (
    GazeTargetRecord,
    MemoryBuffer,
    ResponseParseError,
    localize,
    parse_response,
    query_backend,
    step_cycle,
    synthesize_prompt,
)
from .replay import (
    GroupRow,
    OracleBackend,
    ReplayResult,
    ScriptedBackend,
    replay_evaluate,
    replay_scenario,
)

_register_lazy("reasoner.backends")

__all__ = [
    "SCENARIO_SCHEMA", "SCENARIO_VERSION", "CameraIntrinsics", "Instance",
    "RigidTransform", "Scenario", "ScenarioCycle", "load_scenario",
    "load_scenario_dir", "GazeTargetRecord", "MemoryBuffer", "ResponseParseError",
    "localize", "parse_response", "query_backend", "step_cycle", "synthesize_prompt",
    "OracleBackend", "ScriptedBackend", "GroupRow",
    "ReplayResult", "replay_evaluate", "replay_scenario",
]
