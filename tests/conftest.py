"""The test session's header names what the byte pins depend on: numpy, scipy and the OpenBLAS kernel."""

import numpy as np
import scipy
from behaviour_matrix import openblas_core


def pytest_report_header(config) -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}, OpenBLAS core {openblas_core()}"
