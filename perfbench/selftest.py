#!/usr/bin/env python3
"""Live check that the benchmark counts outputs its oracles reject.

    python3 perfbench/selftest.py

For each kernel kind, runs the driver on a small input with --corrupt set to
that kernel, which damages one value of each of its timed outputs (one
distance, one label, one MIS state, one rank or the scalar result) before
verify::checkKernelOutput sees it. The check passes when the oracle rejects
exactly those calls: the JSON line reports correct=false, failed equal to the
kernel's call count (its "(n=...)" in the metric table), and verified_frac =
1 - failed/attempted. An unmodified run of each workload must report
failed=0. The push workload exercises runKernel(Csr), the hybrid one
runKernel(AnyLayout). Exits 1 on a mismatch.
"""

import json
import re
import subprocess
import sys

from run import DRIVER, ROOT, build

# (workload, kernels it runs), in the driver's order.
CASES = [
    ("road-push", ["bfs-wl", "bfs-cx", "bfs-tp", "bfs-hb", "cc", "tri",
                   "sssp", "mis", "pr", "mst"]),
    ("rmat-hybrid", ["bfs-wl", "bfs-cx", "bfs-tp", "bfs-hb", "cc", "sssp",
                     "mis", "pr", "mst"]),
]


def run_driver(workload, corrupt):
    cmd = [DRIVER, "--workload", workload, "--seed", "5", "--seconds", "0.3",
           "--trace", "0", "--scale", "1", "--setups", "1"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        sys.exit("selftest: driver failed on %s: %s" % (workload, proc.stderr))
    calls = {m.group(1): int(m.group(2)) for m in re.finditer(
        r"^\s+(\S+)_ms\s+\S+\s+ms\s+\(n=(\d+)\)$", proc.stdout, re.M)}
    return json.loads(proc.stdout.strip().splitlines()[-1]), calls


def check(workload, kernels, corrupt):
    res, calls = run_driver(workload, corrupt)
    attempted, failed = res["attempted"], res["failed"]
    want = calls[corrupt] if corrupt else 0
    frac = res["metrics"]["verified_frac"]["value"]
    ok = (sum(calls[k] for k in kernels) == attempted
          and failed == want and res["correct"] == (want == 0)
          and abs(frac - (1 - failed / attempted)) < 1e-12)
    print("%-4s %-12s corrupt=%-7s attempted=%-4d failed=%-3d verified_frac=%.4f"
          % ("ok" if ok else "FAIL", workload, corrupt or "-", attempted,
             failed, frac))
    return ok


def main():
    if not build():
        return 1
    ok = True
    for workload, kernels in CASES:
        ok &= check(workload, kernels, None)
        for kernel in kernels:
            ok &= check(workload, kernels, kernel)
    print("selftest: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
