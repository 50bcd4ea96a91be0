"""The benchmark's traced replay calls the simulation layers directly.

benchmark/workloads.py replays run_trials step by step (sample, Gram
matrix, esd, matrix-power moments, KS, histogram) and requires the
replay to match run_trials. This runs that comparison on tiny
configurations on each side of m = n^k, so a change to those functions'
signatures or results fails here, not only in the benchmark.
"""

import importlib
import os
import sys

import pytest

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCHMARK)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(BENCHMARK)


def test_replay_matches_run_trials(workloads):
    Sim = workloads.Sim
    signed = tuple((1.0, -0.5)[j % 2] for j in range(54))
    sims = [  # n = k = 3, so n^k = 27 and m = round(27 c)
        Sim("phase-c0.5", 3, 3, 0.5, "phase", "const:1", (1.0,) * 14, 2, 1),
        Sim("rademacher-c2", 3, 3, 2.0, "rademacher", "const:1", (1.0,) * 54, 2, 2),
        Sim("rademacher-c2-signed", 3, 3, 2.0, "rademacher", "file:signed", signed, 2, 3),
        # Y has rank 26: the replay's Gram-side esd must count the zero atom exactly
        Sim("rademacher-c2-signed-rank26", 3, 3, 2.0, "rademacher", "file:signed", signed, 2, 1),
        Sim("roots3-c1.5", 3, 3, 1.5, "roots:3", "const:1", (1.0,) * 40, 2, 4),
    ]
    assert all(len(s.tau) == s.m for s in sims)
    commands = [workloads.sim_command(s, threads=1) for s in sims]
    got = workloads.replay(commands, workloads.NullTracer())
    bad = workloads.compare(got, workloads.untraced(commands), workloads.references(commands))
    assert bad == {s.ident: [] for s in sims}
