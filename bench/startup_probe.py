"""Start-up breakdown of one fresh interpreter.

Prints one JSON line: the ``time.perf_counter()`` reading when this script
began (the launching process subtracts its own launch reading, which is the
same clock), then the wall time of ``import numpy`` and of
``import admrelay.cli`` after it.
"""

import time

T_MAIN = time.perf_counter()

import numpy  # noqa: E402,F401

T_NUMPY = time.perf_counter()

import admrelay.cli  # noqa: E402,F401

T_ADMRELAY = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"t_main": T_MAIN,
                  "import_numpy_ms": (T_NUMPY - T_MAIN) * 1e3,
                  "import_admrelay_ms": (T_ADMRELAY - T_NUMPY) * 1e3}))
