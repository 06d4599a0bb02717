"""Put the benchmark's modules and the dllrnn sources on the import path.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]
