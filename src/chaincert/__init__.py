"""Certified analysis of chained bi-affine computations.

The package models deep architectures as chains ``x_t = a_t(b_t(x_{t-1},
u_t))`` with bi-affine maps ``b_t`` and nonlinear stages ``a_t``, and
provides, on top of that single representation:

* reverse-mode gradients, tangents and second-order contractions with an
  exact elementary-operation meter (:mod:`chaincert.autodiff`);
* log-domain propagation of magnitude, Lipschitz and smoothness constants
  over parameter or input balls (:mod:`chaincert.smoothness`);
* Newton and Gauss-Newton steps through dynamic programming and a dual
  matrix-free solver, with a dense reference (:mod:`chaincert.oracles`);
* implicit (argmin) layers with certified gradient error bounds
  (:mod:`chaincert.implicit`);
* step-size-certified projected gradient training
  (:mod:`chaincert.training`);
* a line-based architecture file format and a command line front end
  (:mod:`chaincert.archfile`, :mod:`chaincert.cli`).
"""

from .errors import *  # noqa: F401,F403
from .magnitude import *  # noqa: F401,F403
from .activations import *  # noqa: F401,F403
from .stages import *  # noqa: F401,F403
from .biaffine import *  # noqa: F401,F403
from .layers import *  # noqa: F401,F403
from .chain import *  # noqa: F401,F403
from .autodiff import *  # noqa: F401,F403
from .objectives import *  # noqa: F401,F403
from .smoothness import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .implicit import *  # noqa: F401,F403
from .training import *  # noqa: F401,F403
from .archfile import *  # noqa: F401,F403
from . import (activations, archfile, autodiff, biaffine, chain, errors, implicit,
               layers, magnitude, objectives, oracles, smoothness, stages, training)

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
__all__ = [*errors.__all__, *magnitude.__all__, *activations.__all__, *stages.__all__,
           *biaffine.__all__, *layers.__all__, *chain.__all__, *autodiff.__all__,
           *objectives.__all__, *smoothness.__all__, *oracles.__all__,
           *implicit.__all__, *training.__all__, *archfile.__all__]
