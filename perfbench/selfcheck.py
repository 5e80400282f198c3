"""Check that every generated invocation passes its verdict for several seeds.

Usage (from the root of a scaleflow checkout):

    python3 perfbench/selfcheck.py [--seeds 0,1,2,3,4]

Runs one untraced pass of each workload per seed and prints, per seed, the
verdict time and the accuracy margin with the error that sets it.  Exits 1
if any invocation fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,1,2,3,4")
    args = parser.parse_args(argv)
    root = os.path.dirname(run.HERE)
    base = os.path.join(root, run.WORK_DIR)
    os.makedirs(base, exist_ok=True)
    failed = 0
    for name in workloads.NAMES:
        for seed in (int(s) for s in args.seeds.split(",")):
            workdir = tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=base)
            try:
                invocations = workloads.generate(name, seed, root, workdir)
                runner = run.Runner(root, workdir, invocations, time.monotonic() + 170.0)
                results = runner.run_pass(0, traced=False)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failed += len(runner.failures)
            if runner.failures:
                print(f"{name} seed {seed}: FAILED {runner.failures}")
                continue
            worst = min(runner.errors, key=lambda e: workloads.margin(e[1], e[2]))
            print(f"{name} seed {seed}: pass, verdict_s "
                  f"{sum(r['verdict_s'] for r in results):.2f}, accuracy_margin "
                  f"{workloads.margin(worst[1], worst[2]):.4f} "
                  f"({worst[0]} = {worst[1]:.3g} against {worst[2]:.3g})")
    try:
        os.rmdir(base)
    except OSError:  # a benchmark run still uses it
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
