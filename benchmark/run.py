#!/usr/bin/env python3
"""tensormp benchmark: end-to-end timing, a traced per-layer run, and
output checks, for one workload per process.

    python3 benchmark/run.py --workload mc-ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports tensormp from
``src/``. ``--trace 0`` times the workload's ``tensormp`` commands,
called in-process through ``tensormp.cli.main``, and reports the
end-to-end metrics of BENCHMARK.json. ``--trace 1`` reports its per-layer
metrics instead: it runs the same commands inside spans, then calls the
lower layers' public functions directly inside spans. Either way every
output is checked, a human-readable summary is printed, the full result
(provenance, per-pass numbers, check messages, spans) is written to
``benchmark/out/``, and the last line of stdout is the JSON result.
See benchmark/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
HOLDOUT_SEED = 20231  # never used while tuning; later claims must also hold on it
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUITES = ("sequences", "graphs", "stirling", "moments")
WROTE = re.compile(r"^wrote (.+)$", re.M)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("mc-ladder", "mc-wide-oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing tensormp and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tensormp, tensormp.cli"],
                       env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cli_threads": threads,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------ CLI passes

def run_cli(cli, cmd, out_dir):
    """One in-process ``tensormp`` call: (exit code, stdout, stderr, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([*cmd.argv, "--out", out_dir, "--force"])
        except Exception:
            error = traceback.format_exc()
    return rc, out.getvalue(), err.getvalue(), error


def run_pass(cli, commands, out_dir, tracer):
    """The workload's command list, one after another.

    Returns the runs and each command's wall time in seconds.
    """
    runs, seconds = [], {}
    for cmd in commands:
        with tracer.span(cmd.cli_span, cmd.ident):
            t0 = time.perf_counter()
            runs.append(run_cli(cli, cmd, out_dir))
            seconds[cmd.ident] = time.perf_counter() - t0
    return runs, seconds


def evaluate(commands, runs, refs, first_digests):
    """Checks each command's outputs: ({ident: failures}, bytes written, digests)."""
    from workloads import check_command

    failures, digests, nbytes = {}, {}, 0
    for cmd, (rc, out, err, error) in zip(commands, runs):
        if error is not None or rc != 0:
            failures[cmd.ident] = [error or f"exit code {rc}: {err.strip()[-500:]}"]
            continue
        try:
            files = {}
            for path in WROTE.findall(out) + WROTE.findall(err):
                with open(path, "rb") as fh:
                    files[path] = fh.read()
            msgs = check_command(cmd, out, files, refs)
        except Exception:
            failures[cmd.ident] = [f"unreadable output: {traceback.format_exc()}"]
            continue
        nbytes += sum(len(b) for b in files.values())
        digest = hashlib.sha256(b"".join(files[p] for p in sorted(files))).hexdigest()
        digests[cmd.ident] = digest
        if first_digests and first_digests.get(cmd.ident, digest) != digest:
            msgs.append("output bytes differ from the first pass with the same inputs")
        failures[cmd.ident] = msgs
    return failures, nbytes, digests


# ----------------------------------------------------------------- modes

def timed_mode(cli, commands, refs, seconds, out_dir):
    """Untraced passes until the next would overrun ``seconds``."""
    passes, first = [], None
    start = time.perf_counter()
    while True:
        runs, command_s = run_pass(cli, commands, out_dir, NullTracer())
        failures, nbytes, digests = evaluate(commands, runs, refs, first)
        first = first or digests
        passes.append({"command_s": command_s, "write_bytes": nbytes, "failures": failures})
        walls = [sum(p["command_s"].values()) for p in passes]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes


def layer_metrics(tracer, commands, probe, nbytes, untraced_wall) -> dict[str, float]:
    """Per-layer numbers of one traced iteration; ``probe`` is the oracle
    probe's result, or None when the workload has no oracle commands."""
    own = tracer.self_times()

    def s(name):
        return own.get(name, 0.0)

    sims = [c.sim for c in commands if c.sim is not None]
    flop = sum(8 * sim.k * sim.m**2 * sim.n * sim.trials for sim in sims)
    oracle = probe is not None
    replay = tracer.total("replay")
    metrics = {
        "simulation.esd_s": s("simulation.esd"),
        "simulation.trace_moments_s": s("simulation.trace_moments"),
        "simulation.gram_s": s("simulation.gram"),
        "simulation.gram_gflop_per_s": flop / s("simulation.gram") / 1e9 if flop else 0.0,
        "simulation.sample_s": s("simulation.sample"),
        "simulation.histogram_s": s("simulation.histogram"),
        "mplaw.ks_s": s("mplaw.ks"),
        "mplaw.law_table_s": s("mplaw.law_table"),
        "moments.limiting_s.p8": s("moments.limiting.p8"),
        "moments.limiting_s.p9": s("moments.limiting.p9"),
        "moments.exact_s.p5": s("moments.exact.p5"),
        "moments.exact_s.p6": s("moments.exact.p6"),
        "moments.limit_useful_ratio":
            probe["limit_kept"] / probe["limit_enumerated"] if oracle else 0.0,
        "moments.exact_nonzero_ratio":
            probe["pairs_nonzero"] / probe["pairs"] if oracle else 0.0,
        "sequences.enumerate_s": s("sequences.enumerate"),
        "sequences.is_crossing_s": s("sequences.is_crossing"),
        "graphs.build_classify_s": s("graphs.build_classify"),
        "graphs.pairs_per_s": probe["pairs"] / s("graphs.build_classify") if oracle else 0.0,
        "cli.simulate_s": s("cli.simulate"),
        "cli.moments_s": s("cli.moments"),
        "cli.mplaw_s": s("cli.mplaw"),
        "cli.write_bytes": nbytes,
        "trace.coverage": 1.0 - s("replay") / replay,
        "trace.overhead_s": replay - untraced_wall,
    }
    for suite in SUITES:
        metrics[f"cli.verify_s.{suite}"] = s(f"cli.verify.{suite}")
    return metrics


def traced_mode(cli, name, commands, refs, seconds, out_dir):
    """Per iteration: the untraced pipeline, the CLI commands in spans,
    then the lower layers called directly in spans."""
    from workloads import compare, replay, untraced

    iterations, first = [], None
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        want = untraced(commands)
        untraced_wall = time.perf_counter() - t_iter
        tracer = Tracer()
        runs, _ = run_pass(cli, commands, out_dir, tracer)
        failures, nbytes, digests = evaluate(commands, runs, refs, first)
        first = first or digests
        with tracer.span("replay", name):
            got = replay(commands, tracer)
        for ident, msgs in compare(got, want, refs).items():
            failures[ident].extend(msgs)
        iterations.append({
            "seconds": time.perf_counter() - t_iter,
            "untraced_wall_s": untraced_wall,
            "metrics": layer_metrics(tracer, commands, got.get("oracle"), nbytes, untraced_wall),
            "failures": failures,
            "spans": tracer.to_json(),
        })
        spent = [it["seconds"] for it in iterations]
        if time.perf_counter() - start + statistics.median(spent) > seconds:
            return iterations


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tensormp", "cli.py")):
        print(f"benchmark: no tensormp sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # CLI paths are relative, so output bytes do not depend on the checkout path
    sys.path.insert(0, SRC)
    from tensormp import cli
    from workloads import WORKLOADS, references, warmup_command

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    threads = len(os.sched_getaffinity(0))
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.relpath(tempfile.mkdtemp(prefix="cli-", dir=OUT), ROOT)
    try:
        commands = WORKLOADS[args.workload](args.seed, tmp, threads)
        refs = references(commands)
        setup = measure_setup() if args.trace == 0 else []
        run_pass(cli, [warmup_command(c, threads) for c in commands], tmp, NullTracer())
        if args.trace == 0:
            rounds = timed_mode(cli, commands, refs, args.seconds, tmp)
        else:
            rounds = traced_mode(cli, args.workload, commands, refs, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(r["failures"]) for r in rounds)
    failed = sum(1 for r in rounds for msgs in r["failures"].values() if msgs)
    trials = sum(c.sim.trials for c in commands if c.sim is not None)
    if args.trace == 0:
        # per-command medians filter a stall that hits one command in one pass
        wall = sum(statistics.median(r["command_s"][c.ident] for r in rounds) for c in commands)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {
            "fail_ratio": {"value": failed / attempted, "unit": "1"},
            "cli.write_bytes": {"value": rounds[0]["write_bytes"], "unit": "bytes"},
        }
        if trials:
            extra["trials_per_s"] = {"value": trials / wall, "unit": "1/s"}
        section = "end_to_end"
    else:
        values = {
            name: statistics.median(r["metrics"][name] for r in rounds)
            for name in rounds[0]["metrics"]
        }
        values["cli.write_bytes"] = rounds[0]["metrics"]["cli.write_bytes"]  # a count, repeats exactly
        extra = {"fail_ratio": {"value": failed / attempted, "unit": "1"}}
        section = "per_layer"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, threads),
        "commands": [list(c.argv) for c in commands],
        "trials": trials,
        "setup_samples_s": setup,
        "metrics": metrics,
        "extra": extra,
        "rounds": rounds,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    for r_index, r in enumerate(rounds):
        for ident, msgs in r["failures"].items():
            for msg in msgs:
                print(f"FAIL round {r_index} {ident}: {msg}")
    for name, m in {**metrics, **extra}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds={len(rounds)} attempted={attempted} failed={failed} result={os.path.relpath(path)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
