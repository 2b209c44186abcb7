"""Time the one-time structures a pipeline builds before its first fit.

Usage: python3 perfbench/setup_child.py MANIFEST [OBSERVED_SCENE_ID,...]

Measures, in a fresh interpreter: importing the package, loading the dataset,
stacking the location features, building the Gram basis and building the
action-matrix bundle (observed scenes only, when given). Prints one JSON
object with the elapsed seconds and the numeric environment.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from actionmaps import cli, fileio  # noqa: E402,F401  (cli: the pipeline's import set)
from actionmaps.sideinfo import GramBasis, KernelConfig  # noqa: E402
from actionmaps.solver import build_bundle  # noqa: E402


def blas_environment():
    """BLAS library, version and live thread count of the loaded numpy."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_version": "unknown",
            "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def main(argv):
    manifest = argv[0]
    observed = set(argv[1].split(",")) if len(argv) > 1 and argv[1] else None
    dataset = fileio.load_dataset(manifest)
    features = dataset.location_features()
    GramBasis(features, KernelConfig().chi2_epsilon)
    build_bundle(dataset.scenes, dataset.index(), observed)
    setup_s = time.perf_counter() - T0
    print(json.dumps({"setup_s": setup_s, "python": sys.version.split()[0],
                      **blas_environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
