#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: table-nominal, table-impurity, explore, serve (BENCHMARK.json
records why each exists).  The script builds perfbench/gnrbench.exe and
bin/gnrfet_cli.exe with dune, then runs the workload; the workload's
last line of output is the JSON result.  It exits non-zero, without a
result, when the sources are missing or the build fails, and with the
workload's own code (1 when an output check fails) otherwise.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

SOURCES = ("dune-project", "lib", "bin", "perfbench/dune")
TARGETS = ("perfbench/gnrbench.exe", "bin/gnrfet_cli.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing))
    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        stdout=sys.stderr, stderr=sys.stderr, env=env,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        os.path.join("_build", "default", "perfbench", "gnrbench.exe"),
        "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join("_build", "default", "bin", "gnrfet_cli.exe"),
        "--data", os.path.join("perfbench", "data"),
        "--source", source_id(),
    ]
    sys.stdout.flush()
    # The serve client and daemon hand each request back and forth; on one
    # CPU that hand-off is a local context switch, while across CPUs it
    # waits on a cross-CPU wake-up whose latency swings with host load.
    # Pinned, the daemon's default pool width is 1 on every machine.
    pin = None
    if args.workload == "serve" and hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    # Its own process group, so the serve daemon it starts goes down with
    # it whatever way it ends.
    proc = subprocess.Popen(cmd, start_new_session=True, preexec_fn=pin)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        fail("workload timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
