"""Fresh-process set-up probe: import sqdiv, load a pool, derive correctness.

Usage: python3 perfbench/probe.py MANIFEST
Prints one JSON object with the split of its own time and the pool
fingerprint; the caller times the whole process from outside.
"""

import json
import sys
import time

t0 = time.perf_counter()
import sqdiv  # noqa: E402
from sqdiv.pool import correctness, load_pool  # noqa: E402

t1 = time.perf_counter()
pool = load_pool(sys.argv[1])
t2 = time.perf_counter()
cm = correctness(pool)
t3 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "load_s": t2 - t1,
    "correctness_s": t3 - t2,
    "fingerprint": pool.fingerprint(),
    "module": sqdiv.__file__,
}))
