"""Fresh-process probe: set-up time, and peak RSS of one workload pass.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass WORKLOAD SEED [smoke]

Set-up time runs from this script's first line through importing
``grovergeo.cli`` and finishing one tiny CLI call.  The ``pass`` mode then
runs one pass of the workload and reports ``ru_maxrss`` and the sha256 of
each CLI item's output, which the parent compares with its verified runs.
The last stdout line is one JSON object.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402  (pins threads before numpy loads)


def main(argv):
    harness.bootstrap()
    import grovergeo.cli  # noqa: F401

    from perfbench import workloads

    tiny = workloads.invoke(["search-time", "--points", "2"])
    if tiny.exit_code != 0:
        raise harness.BenchError(f"set-up call failed: {tiny.error}")
    result = {"setup_s": time.perf_counter() - T0}
    if argv[0] == "pass":
        # outputs are hashed, not checked, so that check buffers stay out of the peak RSS
        digests, failures = {}, []
        for item in workloads.WORKLOADS[argv[1]](int(argv[2]), smoke=len(argv) > 3):
            try:
                out = item.run()
            except Exception as exc:  # reported to the parent, which counts the run incorrect
                failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
                continue
            if item.cli:
                digests[item.label] = harness.digest(out.stdout) if out.exit_code == 0 else f"exit {out.exit_code}"
        result.update(digests=digests, failures=failures)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
