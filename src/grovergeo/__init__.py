"""grovergeo: numerical geometry of quantum search.

Rays in complex projective space, Fubini-Study distances and geodesics,
Grover dynamics as motion along a geodesic, quadric separability
certificates, and a geometric entanglement measure with exact,
approximate, and brute-force routes.

Each module declares its public names in its own ``__all__``; the package
re-exports them all.
"""

__version__ = "0.1.0"

from . import entanglement, errors, grover_engine, ray_space, segre
from .entanglement import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .grover_engine import *  # noqa: F401,F403
from .ray_space import *  # noqa: F401,F403
from .segre import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *ray_space.__all__,
    *grover_engine.__all__,
    *segre.__all__,
    *entanglement.__all__,
    *errors.__all__,
]
