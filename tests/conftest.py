"""Shared fixtures.

The Monte Carlo ladder is expensive (the n=8 rung runs twenty trials of
a 2048-sample experiment), so it is computed once per session and shared
by the convergence, goodness-of-fit, and concentration tests.

Hypothesis draws the same examples on every run and keeps no example
database, so no run depends on what an earlier run found. Its other
storage (the source-constants cache) goes to a temporary directory that
is removed at exit, so a run writes nothing into the checkout.

On a failing example hypothesis' pytest plugin imports
``hypothesis.extra._patching``, whose libcst import raises a
DeprecationWarning; under ``-W error`` that would end the whole run with
an INTERNALERROR. The module is imported here once, with that warning
ignored, so a failing property test is reported as one failure.
"""

import atexit
import shutil
import tempfile
import warnings

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import tensormp as t
from tensormp import simulation
from tensormp.cli import _usable_cpus

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is absent; the plugin then reports no patch
        pass

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="tensormp-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)

LADDER_SEED = 20260818
LADDER_TRIALS = 20
LADDER_C = 0.5
LADDER_P = 4


@pytest.fixture(scope="session")
def mc_ladder():
    """Reports for n = 4, 6, 8 at k=4, c=0.5, phase entries, tau = 1.

    Trials run in the pool, one worker per usable core; the results do not
    depend on the worker count."""
    runs = {}
    for n in (4, 6, 8):
        m = round(LADDER_C * n**4)
        runs[n] = t.run_trials(
            n, 4, m, t.PHASE, (1.0,) * m, LADDER_P, LADDER_TRIALS, LADDER_SEED, c=LADDER_C,
            threads=_usable_cpus(),
        )
    return runs


needs_openblas = pytest.mark.skipif(
    simulation._openblas() is None, reason="numpy does not ship the scipy-openblas library"
)
