"""The test session's header names what the byte pins depend on: numpy, scipy and the OpenBLAS kernel."""

import ctypes
from pathlib import Path

import numpy as np
import scipy


def _openblas_core() -> str:
    """The CPU core whose kernels numpy's bundled scipy-openblas runs, or ``unknown`` without that library or symbol."""
    libraries = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libraries[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config) -> str:
    return f"numpy {np.__version__}, scipy {scipy.__version__}, OpenBLAS core {_openblas_core()}"
