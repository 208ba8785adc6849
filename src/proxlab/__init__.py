"""Set-valued shrinkage operators, their single-valued relaxations, and
desk-scale recovery experiments on 2-D linear models.

The package splits into:

* :mod:`proxlab.core` — planar points, weight pairs, and ``ProxSet``, the
  set-valued prox result on ℝ and ℝ²;
* :mod:`proxlab.scalar_ops` — zero-counting penalties and 1-D shrinkage;
* :mod:`proxlab.rowl` — ordered weighted l1 penalty, prox, and envelope;
  ``rowl_shrinker`` is the prox's single-valued selection for solvers;
* :mod:`proxlab.erowl` — the single-valued relaxed operator family as a
  per-point solver closure (``erowl_shrinker``), which ``erowl`` maps over
  ``(..., 2)`` inputs;
* :mod:`proxlab.transform` — grid conjugation, brute-force proxes, graph
  surgery between shrinkage families, operator checks;
* :mod:`proxlab.solver` — proximal forward-backward splitting and step rules;
* :mod:`proxlab.experiments` — reproducible recovery scenarios and CSV output.
"""
# Each public name is declared once, in its module's __all__.  The lists are
# read before the star imports: ``from .erowl import *`` rebinds ``erowl``
# here to the function, and ``from . import erowl`` would then return it.
from . import core, erowl, experiments, rowl, scalar_ops, solver, transform

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, scalar_ops, rowl, erowl, transform, solver, experiments)
    for name in module.__all__
] + ["__version__"]

from .core import *  # noqa: E402,F403
from .scalar_ops import *  # noqa: E402,F403
from .rowl import *  # noqa: E402,F403
from .erowl import *  # noqa: E402,F403
from .transform import *  # noqa: E402,F403
from .solver import *  # noqa: E402,F403
from .experiments import *  # noqa: E402,F403
