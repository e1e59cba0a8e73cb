"""Times one import of the package in this fresh interpreter.

Run as ``python3 perfbench/setup_probe.py`` with ``src`` on ``PYTHONPATH``;
prints ``{"import_s": ..., "scaled_s": ...}``.  The import is bracketed by
timings of the reference work (see ``spans.py``) and scaled by them.
"""

import json
import statistics
import time

from spans import REFERENCE_S, reference_seconds

REPS = 7


def main() -> None:
    before = statistics.median(reference_seconds() for _ in range(REPS))
    start = time.perf_counter()
    import stratacert  # noqa: F401
    import stratacert.checks  # noqa: F401
    import stratacert.cli  # noqa: F401
    seconds = time.perf_counter() - start
    after = statistics.median(reference_seconds() for _ in range(REPS))
    print(json.dumps({"import_s": seconds,
                      "scaled_s": seconds * REFERENCE_S / ((before + after) / 2)}))


if __name__ == "__main__":
    main()
