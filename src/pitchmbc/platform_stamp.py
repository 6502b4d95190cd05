"""What floating-point results depend on besides the code.

Low bits of a fit depend on the numpy version, the BLAS, and the SIMD paths
numpy dispatches to on this CPU. Checked-in expectations record this stamp,
and their tests compare exactly only where it matches.
"""

from __future__ import annotations

import numpy as np


def platform_stamp() -> dict:
    """The numpy version, the BLAS and the SIMD paths enabled here."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}
