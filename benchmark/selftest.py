#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 benchmark/selftest.py [--workload mc-wide-oracle]

Runs the workload three times with the shortest measuring window: twice
with one seed, once with another. The two same-seed runs must give the
same check outcome for every command and the same bytes written by the
CLI. The second seed must change the simulate inputs, and every
check must pass on all three runs. Exits 0 on success, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        sys.exit(f"run.py failed on seed {seed}:\n{res.stderr}")
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace0.json")) as fh:
        full = json.load(fh)
    return {
        "correct": json.loads(res.stdout.splitlines()[-1])["correct"],
        "outcomes": [{i: not msgs for i, msgs in r["failures"].items()} for r in full["rounds"]],
        "write_bytes": full["extra"]["cli.write_bytes"]["value"],
        "commands": full["commands"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="mc-wide-oracle", choices=("mc-ladder", "mc-wide-oracle"))
    args = ap.parse_args()
    first, again, other = run(args.workload, 1), run(args.workload, 1), run(args.workload, 2)
    problems = []
    if first["outcomes"][0] != again["outcomes"][0]:
        problems.append("same seed, different check outcomes")
    if first["write_bytes"] != again["write_bytes"]:
        problems.append(f"same seed, write bytes {first['write_bytes']} != {again['write_bytes']}")
    if first["commands"] == other["commands"]:
        problems.append("a second seed left the mc inputs unchanged")
    for name, r in (("seed 1", first), ("seed 1 again", again), ("seed 2", other)):
        if not r["correct"]:
            problems.append(f"{name}: a check failed, see benchmark/out/")
    for p in problems:
        print(f"FAIL {p}")
    print(f"SELFTEST {'FAIL' if problems else 'PASS'} workload={args.workload}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
