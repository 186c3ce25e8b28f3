"""Scripted gaze-reasoning pipeline: scenarios, marking, prompts, backends.

The pipeline consumes scenario files (pre-annotated interaction streams),
whose loader keeps each cycle's candidate instances in mark order. It
synthesizes a prompt per cycle, queries a pluggable language-model
backend, parses the selected mark, and localizes it to a 3D point in the
robot base frame. `replay` scores scenario runs with the two-cycle
correctness window and holds the offline backends.

The reasoner's API is its four modules: `scenario`, `pipeline`, `replay`
and `backends` (the remote transport). Each is registered here as a lazy
module, as the package registers its numpy layers: it runs on first
attribute access, so a model command never runs the reasoner, and a
scripted or oracle replay never compiles the HTTP transport. Import names
from the module that holds them, e.g. `RemoteBackend` from
`gazeshift.reasoner.backends`.
"""

from .. import _register_lazy

for _name in ("scenario", "pipeline", "replay", "backends"):
    _register_lazy(f"reasoner.{_name}")
del _name
