"""Sparsifying threshold maps on lp balls and the width bounds they certify.

The package has three layers:

* the map itself (:mod:`widim.threshold_map`), a continuous
  signed-permutation-equivariant projection onto m-sparse vectors built on
  the group machinery in :mod:`widim.signed_perm`;
* closed-form width-dimension bounds (:mod:`widim.bounds`) with the
  distortion certification harnesses that back them up
  (:mod:`widim.certify`);
* a desk-scale lattice-dynamics harness (:mod:`widim.group_dynamics`)
  showing the per-coordinate dimension count of the infinite-dimensional
  ball vanish.

Everything randomized is seeded (default 0x5EED), and every report is
byte-identical across reruns and worker counts.
"""

from ._streams import *
from .core import *
from .signed_perm import *
from .threshold_map import *
from .bounds import *
from .certify import *
from .group_dynamics import *
from ._output import *

__version__ = "0.1.0"

# Each module's __all__ lists the names it defines; the package exports them all.
__all__ = (_streams.__all__ + core.__all__ + signed_perm.__all__ + threshold_map.__all__
           + bounds.__all__ + certify.__all__ + group_dynamics.__all__ + _output.__all__
           + ["__version__"])
