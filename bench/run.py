"""lbdiv benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {cut,ratings,mallows} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. The workload runs in a child process
(worker.py) with BLAS threads pinned to 1 and the checkout's `src` on
PYTHONPATH; its inputs go to a scratch directory under `.bench_work/`,
removed afterwards. The last line of output is a JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cut", "ratings", "mallows"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "lbdiv" / "__init__.py").is_file():
        print(f"error: no lbdiv sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    command = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    try:
        # its own session, so that a timeout also ends the set-up probes
        with subprocess.Popen(command, env=env, cwd=workdir, text=True,
                              stdout=subprocess.PIPE,
                              start_new_session=True) as child:
            try:
                output, _ = child.communicate(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                print(f"error: workload did not finish in {TIMEOUT_S} s",
                      file=sys.stderr)
                return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
