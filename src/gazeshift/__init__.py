"""Eye-head gaze-shift toolkit.

Three layers:
  * synthetic gaze-shift data generation (`gazeshift.datagen`),
  * a conditional VQ-VAE that allocates a requested gaze shift between the
    eyes and the head, with a learned conditional prior over its discrete
    codes (`gazeshift.vqvae`, `gazeshift.prior`, `gazeshift.trainer`),
  * a scripted gaze-target reasoning pipeline that turns annotated scene
    cycles into 3D gaze targets (`gazeshift.reasoner`).

The numpy layers are lazy modules: importing the package, the CLI or the
reasoner registers them without running them, so a replay never loads
numpy. Each runs on first attribute access, ``from gazeshift.so3 import
rotation_zyx`` included. The reasoner registers its four modules
(``scenario``, ``pipeline``, ``replay`` and the remote transport
``backends``) the same way, so a model command never runs the reasoner
and only a remote replay runs the transport. ``gen-data`` runs only
``datagen`` and ``so3``: the row value rules it checks live in
``datagen``, not in ``vqvae``.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazy(name: str) -> None:
    """Put ``gazeshift.<name>`` in ``sys.modules`` and on its parent package, unexecuted.

    ``name`` may be dotted (``reasoner.backends``); the parent must be imported.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    parent, _, child = spec.name.rpartition(".")
    setattr(sys.modules[parent], child, module)


for _name in ("so3", "nets", "vqvae", "prior", "datagen", "trainer"):
    _register_lazy(_name)
del _name
