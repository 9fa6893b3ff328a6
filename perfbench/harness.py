"""Shared plumbing: thread pinning, locating the package, running items, statistics."""
from __future__ import annotations

import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread everywhere, so that timings do not depend on how many cores are free
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a child that failed)."""


def bootstrap(root: Path = ROOT):
    """Import grovergeo from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "grovergeo" / "__init__.py").is_file():
        raise BenchError(f"no grovergeo sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import grovergeo

    if src.resolve() not in Path(grovergeo.__file__).resolve().parents:
        raise BenchError(f"grovergeo imported from {grovergeo.__file__}, not from {src}")
    return grovergeo


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def git_sha(root: Path = ROOT) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_info(**settings) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        **settings,
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def data_rows(stdout: bytes) -> int:
    return max(0, sum(1 for ln in stdout.splitlines() if not ln.startswith(b"#")) - 1)


class Session:
    """Runs passes over an item list, timing each item and gating its output.

    ``digests`` maps item index to the sha256 of that CLI item's verified
    output; pass the same dict to several sessions (traced and untraced) to
    require byte-identical output across them.
    """

    def __init__(self, items, digests: dict | None = None, tracer=None):
        self.items = items
        self.digests = {} if digests is None else digests
        self.tracer = tracer
        self.times: list[list[float]] = [[] for _ in items]
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.failures: list[str] = []

    def _fail(self, i: int, why: str):
        self.failed += 1
        self.failures.append(f"{self.items[i].label}: {why}")

    def _gate(self, i: int, out) -> str | None:
        item = self.items[i]
        if item.cli and out.exit_code == 0:
            key = digest(out.stdout)
            if i in self.digests:
                return None if key == self.digests[i] else "output bytes differ from the first verified run"
            self.max_err = max(self.max_err, item.check(out))
            self.digests[i] = key
            return None
        self.max_err = max(self.max_err, item.check(out))
        return None

    def run_pass(self):
        for i, item in enumerate(self.items):
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.begin_item(i)
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # an item failure must not stop the benchmark
                self._fail(i, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                dt = time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.end_item()
            self.times[i].append(dt)
            try:
                problem = self._gate(i, out)
            except Exception as exc:  # a check that cannot read the output is a miss
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                self._fail(i, problem)
                continue
            if self.tracer is not None and item.cli:
                self.tracer.count(f"cli.{item.args[0]}", rows=data_rows(out.stdout), bytes=len(out.stdout))

    def warm_up(self) -> float:
        """One pass that fills caches and verifies every item; its times are dropped.

        Returns the seconds the pass took, checks included.
        """
        start = time.perf_counter()
        self.run_pass()
        self.times = [[] for _ in self.items]
        return time.perf_counter() - start

    def run_for(self, seconds: float, min_passes: int = 1) -> int:
        """Run passes until another would overrun ``seconds``; returns the pass count."""
        start = time.perf_counter()
        passes = 0
        while True:
            self.run_pass()
            passes += 1
            elapsed = time.perf_counter() - start
            if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
                return passes

    def pass_digests(self) -> dict[str, str]:
        return {self.items[i].label: key for i, key in sorted(self.digests.items())}

    # -- statistics ---------------------------------------------------------

    def samples(self) -> list[float]:
        return [t for ts in self.times for t in ts]

    def wall_s(self) -> float:
        """One pass over the item list: the sum of each item's median time."""
        return sum(statistics.median(ts) for ts in self.times if ts)


def run_child(*args: str) -> dict:
    """Run perfbench/child.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])
