import math
import os
from pathlib import Path

import numpy as np
import pytest

from swanson import ModelParams

# the command-line tests start `python -m swanson` in subprocesses: let them
# import the same source tree as this process, installed or not
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

# sigma = 1 witness points: sqrt(omega^2 - 4 a b) = omega - a - b by construction
SIGMA1_REGION_I = ModelParams(1.0, 0.3, 0.1 - math.sqrt(0.52))
SIGMA1_REGION_III = ModelParams(1.0, 0.3, 0.1 + math.sqrt(0.52))

REGION_I_POINTS = [
    ModelParams(1.0, 0.2, 0.1),
    ModelParams(1.0, -0.1, -0.3),
    ModelParams(2.0, 0.5, 0.2),
]
REGION_III_POINTS = [
    ModelParams(1.0, 1.2, -0.1),
    ModelParams(1.0, 0.9, 0.2),
]
REGION_II_POINT = ModelParams(1.0, -2.0, -0.5)     # |Omega| = sqrt(3)
REGION_IV_POINT = ModelParams(1.0, 2.0, 0.5)
BOUNDARY_I_III_POINT = ModelParams(1.0, 0.75, 0.25)
BOUNDARY_I_II_POINT = ModelParams(1.0, -0.125, -2.0)
BOUNDARY_III_IV_POINT = ModelParams(1.0, 2.0, 0.125)


@pytest.fixture
def grid_6b0():
    return np.linspace(-6.0, 6.0, 201)
