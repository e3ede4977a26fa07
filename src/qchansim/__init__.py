"""Classical simulation of qubit channels with shared randomness and finite messages.

Submodules:

* ``qmath`` — small-dimension linear algebra, the Born rule, and the named
  measurement catalog;
* ``decompose`` — extremal rank-1 measurements and convex decompositions;
* ``protocols`` — one-round simulators (product measurements, block bases,
  several senders) and the random-access-code reduction;
* ``multiround`` — interactive protocols and their collapse to one round;
* ``depolarize`` — the codebook protocol realizing depolarizing noise;
* ``nogo`` — the finite-message witness optimizer and counting checks;
* ``serialize`` — structured text formats;
* ``cli`` — the scenario runner.
"""

__version__ = "0.1.0"

import importlib

from . import decompose, depolarize, multiround, nogo, protocols, qmath, serialize

__all__ = [
    "cli",
    "decompose",
    "depolarize",
    "multiround",
    "nogo",
    "protocols",
    "qmath",
    "serialize",
    "__version__",
]


def __getattr__(name: str):
    # ``cli`` loads on first access, so ``python -m qchansim.cli`` does not find
    # it already imported by the package.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
