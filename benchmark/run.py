"""pedcascade benchmark: one workload per process.

    python3 benchmark/run.py --workload detect-default --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/``; there
is nothing to build.  The second-to-last line of standard output is a JSON
record of the run (seed, commit, versions, BLAS, gates); the last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics when ``--trace 0`` and the per-layer metrics when
``--trace 1``.  The exit code is 0 only for a correct run.
"""

import os
import sys

# One BLAS thread: the load is one closed-loop caller, and a single thread
# keeps timings steady on a shared machine.  Must precede the numpy import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> dict:
    """Name of numpy's BLAS and the thread count it reports."""
    import ctypes
    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        import numpy
        import workloads
    except ImportError as exc:
        print(f"benchmark: cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result, record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    record.update({
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **blas_info(),
    })
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
