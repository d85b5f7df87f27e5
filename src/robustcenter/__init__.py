"""k-center clustering with outliers: randomized greedy solvers, weighted
coresets, exact oracles, and a simulated two-round distributed protocol."""

from .bench import *
from .core import *
from .coreset import *
from .distributed import *
from .generate import *
from .greedy import *
from .solvers import *

__version__ = "0.1.0"
