"""Reference process for start-up timings: a fresh interpreter that imports
numpy and the standard modules admrelay's CLI loads, then exits.

Its wall time tracks what the host charges for starting a process and
loading shared libraries, which a pure-Python loop does not.
"""

import argparse  # noqa: F401
import cmath  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import hashlib  # noqa: F401
import random  # noqa: F401

import numpy  # noqa: F401
