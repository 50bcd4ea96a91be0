"""Exercise the command line through main() in-process.

Exit-code contract: 0 success, 2 usage, 3 numerical, 4 verification.
Three tests start fresh interpreters: one inspects what the import loads,
two vary the BLAS thread count, which is read at interpreter start.
"""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

import tensormp
from tensormp import claims, simulation
from tensormp.cli import build_parser, main

from conftest import needs_openblas


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def no_trial(*args, **kwargs):
    pytest.fail("a trial ran")


def test_verify_suites_pass(capsys):
    for suite, p in (("sequences", "5"), ("graphs", "4"), ("stirling", "8"), ("moments", "5")):
        rc, out, _ = run(capsys, "verify", suite, "--p-max", p)
        assert rc == 0
        assert "OVERALL PASS" in out
        assert "FAIL" not in out.replace("OVERALL PASS", "")


def test_verify_failure_prints_counterexample(monkeypatch, capsys):
    claim = claims.CLAIMS["degree sums"]
    monkeypatch.setitem(
        claims.CLAIMS, claim.name, dataclasses.replace(claim, check=lambda p: ["alpha=(1, 3)"])
    )
    rc, out, _ = run(capsys, "verify", "sequences", "--p-max", "4")
    assert rc == 4
    assert "FAIL degree sums p<=4: alpha=(1, 3)\n" in out
    assert "OVERALL FAIL suite=sequences claims=4 failed=1" in out


def test_verify_reports_a_raising_claim_as_fail(monkeypatch, capsys):
    def boom(p):
        raise ZeroDivisionError("planted")
        yield

    claim = claims.CLAIMS["canonical order"]
    monkeypatch.setitem(claims.CLAIMS, claim.name, dataclasses.replace(claim, check=boom))
    rc, out, _ = run(capsys, "verify", "sequences", "--p-max", "4")
    assert rc == 4
    assert "FAIL canonical order p<=4: raised ZeroDivisionError: planted\n" in out
    assert "PASS degree sums p<=4: " in out and "PASS crossing scan agreement p<=4: " in out
    assert "OVERALL FAIL suite=sequences claims=4 failed=1" in out


def test_verify_applies_the_cap_and_run_takes_p_as_given(monkeypatch, capsys):
    seen = []
    claim = dataclasses.replace(
        claims.CLAIMS["degree sums"], check=lambda p: seen.append(p) or [], cap=3
    )
    assert claim.run(5) is None and claim.label(5) == "degree sums p<=5" and seen == [5]
    monkeypatch.setitem(claims.CLAIMS, claim.name, claim)
    rc, out, _ = run(capsys, "verify", "sequences", "--p-max", "5")
    assert rc == 0 and "PASS degree sums p<=3: " in out and seen == [5, 3]


def test_verify_report_is_deterministic(tmp_path, capsys):
    # per-claim wall times go to stderr, never into the report
    argv = ["verify", "sequences", "--p-max", "4", "--out", str(tmp_path), "--force"]
    rc, _, err = run(capsys, *argv)
    assert rc == 0 and "s  degree sums p<=4" in err
    (path,) = tmp_path.iterdir()
    first = path.read_bytes()
    rc, _, _ = run(capsys, *argv)
    assert rc == 0 and path.read_bytes() == first


def test_verify_p_cap_is_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "sequences", "--p-max", "99")
    assert rc == 2
    assert "usage error" in err


def test_simulate_p_max_beyond_enumeration_cap(tmp_path, capsys):
    # simulate enumerates nothing, so P_CAP does not bind its power sums
    assert tensormp.P_CAP < 13
    argv = "simulate --n 2 --k 2 --m 2 --trials 1 --p-max 13 --out".split()
    rc, _, _ = run(capsys, *argv, str(tmp_path))
    assert rc == 0
    (mom,) = tmp_path.glob("*_trial_moments.csv")
    rows = mom.read_text().strip().split("\n")[2:]
    assert [row.split(",")[1] for row in rows] == [str(p) for p in range(1, 14)]


def test_simulate_overflowing_moment_is_numerical_error(tmp_path, capsys):
    argv = "simulate --n 2 --k 2 --m 2 --trials 1 --p-max 2 --tau const:1e200 --out".split()
    rc, _, err = run(capsys, *argv, str(tmp_path))
    assert rc == 3 and "numerical failure: trace moment p=2 is inf" in err
    assert list(tmp_path.iterdir()) == []  # no report.json holding Infinity


def test_simulate_huge_tau_prints_no_runtime_warning(tmp_path, capsys):
    # the Hermitian check no longer overflows numpy's norm at entries near 1e200
    argv = "simulate --n 2 --k 2 --m 2 --trials 1 --p-max 2 --tau const:1e200 --out".split()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = run(capsys, *argv, str(tmp_path))
    assert rc == 3 and "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_missing_subcommand_prints_help(capsys):
    rc, out, _ = run(capsys)
    assert rc == 2
    assert "verify" in out and "simulate" in out


def test_moments_golden_table(capsys):
    rc, out, _ = run(capsys, "moments", "--c", "1", "--p-max", "4")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# config=")
    assert lines[1] == "p,theory,exact_or_mc,abs_error"
    assert lines[2] == "1,1.0,1.0,0.0"
    assert lines[3] == "2,2.0,2.0,0.0"
    assert lines[4] == "3,5.0,5.0,0.0"
    assert lines[5] == "4,14.0,14.0,0.0"


def test_moments_without_comparison_leaves_empty_cells(tmp_path, capsys):
    # a file: tau without --m has no exact or Monte Carlo column
    tfile = tmp_path / "tau.txt"
    tfile.write_text("1.0\n3.0\n")
    rc, out, _ = run(capsys, *"moments --c 1 --p-max 2 --tau".split(), f"file:{tfile}")
    assert rc == 0
    # c = 1, tau in {1, 3}: m_1 = 2, m_2 = 5, so the limits are 2 and 5 + 2^2
    assert out.strip().split("\n")[1:] == ["p,theory,exact_or_mc,abs_error", "1,2.0,,", "2,9.0,,"]


def test_moments_with_exact_column(capsys):
    rc, out, _ = run(
        capsys,
        *"moments --c 0.5 --p-max 2 --n 2 --k 1 --m 1 --dist rademacher --tau const:1".split(),
    )
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[2:]]
    # n=2, m=1: M has one eigenvalue 1, so (1/n) tr M^p = 1/2 at every p
    assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-14)
    assert float(rows[1][2]) == pytest.approx(0.5, abs=1e-14)
    # fixed n = 2 at k = 64, m = c n^k: one coefficient stands for all 2^63 weights
    rc, out, _ = run(capsys, *f"moments --c 0.5 --n 2 --k 64 --m {2**63}".split())
    assert rc == 0
    for _, theory, exact, _ in (line.split(",") for line in out.strip().split("\n")[2:]):
        assert abs(float(exact) - float(theory)) <= 1e-8 * float(theory)
    # round(c n^k) is far beyond float range: a warning, not an error
    rc, _, err = run(capsys, *"moments --c 0.5 --n 2 --k 1100 --m 1".split())
    assert rc == 0 and "warning: m=1 differs from round(c*n^k)" in err


def test_moments_requires_c(capsys):
    rc, _, err = run(capsys, "moments", "--p-max", "3")
    assert rc == 2 and "usage error" in err


def test_moments_short_moment_list_is_usage_error(tmp_path, capsys):
    mfile = tmp_path / "mom.txt"
    mfile.write_text("1.0\n1.0\n")
    rc, _, err = run(
        capsys, "moments", "--c", "1", "--p-max", "5", "--tau", f"moments:{mfile}"
    )
    assert rc == 2 and "usage error" in err


def test_mplaw_c_zero_is_usage_error(capsys):
    rc, _, err = run(capsys, "mplaw", "--c", "0")
    assert rc == 2 and "usage error" in err


def test_mplaw_table_atom_row(capsys):
    rc, out, _ = run(capsys, "mplaw", "--c", "0.25", "--grid-points", "5", "--x-max", "3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[1] == "x,pdf,cdf"
    x0 = lines[2].split(",")
    assert float(x0[0]) == 0.0 and float(x0[1]) == 0.0
    assert float(x0[2]) == pytest.approx(0.75, abs=1e-10)


def test_mplaw_at_the_largest_c(capsys):
    # the density's factor w^2, w = 4 sqrt(c), would overflow past c = 1.1e307
    rc, out, err = run(capsys, "mplaw", "--c", "1e308", "--grid-points", "3")
    assert rc == 0 and err == ""
    assert float(out.strip().split("\n")[-1].split(",")[2]) == 1.0


def test_mplaw_default_grid_stays_finite(capsys):
    # 1.05 b overflows here, and the support is narrower than one ulp of a,
    # so the 512 grid points hold a few distinct values, one row each
    rc, out, err = run(capsys, "mplaw", "--c", "1.79e308")
    assert rc == 0 and err == ""
    config = json.loads(out.split("\n", 1)[0][len("# config=") :])
    assert math.isfinite(config["x_max"]) and config["x_min"] < config["x_max"]
    xs = [float(line.split(",")[0]) for line in out.strip().split("\n")[2:]]
    assert xs == sorted(set(xs)) and xs[-1] == config["x_max"]


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4, 1e6, 1e8, 1e10])
def test_mplaw_default_grid_covers_the_support(capsys, c):
    rc, out, _ = run(capsys, "mplaw", "--c", repr(c))
    assert rc == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[2:]]
    assert sum(1 for row in rows if row[1] > 0) >= 200
    assert (rows[0][0] == 0.0) == (c < 1)
    # the config names the table: the same grid given as flags gives the same bytes
    config = json.loads(out.split("\n", 1)[0][len("# config=") :])
    grid = ("--x-min", repr(config["x_min"]), "--x-max", repr(config["x_max"]))
    assert run(capsys, "mplaw", "--c", repr(c), *grid)[1] == out


def test_simulate_requires_dimensions(capsys):
    rc, _, err = run(capsys, "simulate", "--n", "3")
    assert rc == 2 and "usage error" in err
    rc, _, err = run(capsys, "simulate", "--k", "2", "--m", "4")
    assert rc == 2 and "usage error" in err


def test_simulate_memory_guard(capsys):
    rc, _, err = run(capsys, *"simulate --n 10 --k 5 --c 0.5 --trials 1".split())
    assert rc == 2
    assert "exceeds limit" in err


@pytest.mark.parametrize("nk", ["--n 2 --k 1", "--n 10 --k 10"])
def test_memory_guard_refusal_is_one_short_line(capsys, nk):
    # at c = 1e300, m = round(c n^k) has 301 digits, and at n^k = 1e10 the
    # working-set estimate passes float range
    rc, out, err = run(capsys, "simulate", *nk.split(), "--c", "1e300")
    assert rc == 2 and out == ""
    (line,) = err.splitlines()
    assert "exceeds limit" in line and len(line) < 200


def test_memory_guard_counts_concurrent_trials(monkeypatch, capsys):
    # one tau = 1 trial at m = 100 is estimated at 0.32 MB, two at once at 0.64 MB
    argv = "simulate --n 10 --k 2 --m 100 --trials 2 --mem-limit 5e5".split()
    monkeypatch.setattr(simulation, "run_trials", no_trial)
    rc, _, err = run(capsys, *argv, "--threads", "2")
    assert rc == 2 and "exceeds limit" in err
    monkeypatch.undo()
    rc, _, _ = run(capsys, *argv, "--threads", "1")
    assert rc == 0


def test_memory_guard_reads_the_sign_of_tau(tmp_path, monkeypatch, capsys):
    # one Gram-side trial at m = 100: 0.32 MB for tau = 1, 0.64 MB for signed tau
    (tmp_path / "tau.txt").write_text("1\n-0.5\n" * 50)
    argv = "simulate --n 10 --k 2 --m 100 --trials 1 --mem-limit 5e5".split()
    monkeypatch.setattr(simulation, "run_trials", no_trial)
    rc, _, err = run(capsys, *argv, "--tau", f"file:{tmp_path / 'tau.txt'}")
    assert rc == 2 and "exceeds limit" in err
    monkeypatch.undo()
    rc, _, _ = run(capsys, *argv)
    assert rc == 0


def test_memory_guard_sizes_real_entries_at_eight_bytes(monkeypatch, capsys):
    # one tau = 1 trial at m = 100: 0.32 MB with complex entries, 0.16 MB with real ones
    argv = "simulate --n 10 --k 2 --m 100 --trials 1 --mem-limit 2.5e5".split()
    monkeypatch.setattr(simulation, "run_trials", no_trial)
    rc, _, err = run(capsys, *argv, "--dist", "roots:4")
    assert rc == 2 and "exceeds limit" in err
    monkeypatch.undo()
    rc, _, _ = run(capsys, *argv, "--dist", "rademacher")
    assert rc == 0


def test_memory_guard_sizes_the_solved_side(capsys):
    # m = 108 > n^k = 27: two 27 x 27 matrices plus two 27 x 108 ones, 0.12 MB;
    # two 108 x 108 ones would be 0.37 MB
    rc, _, err = run(capsys, *"simulate --n 3 --k 3 --c 4 --trials 1 --mem-limit 1.5e5".split())
    assert rc == 0 and "exceeds limit" not in err


def test_threads_default_counts_usable_cpus(monkeypatch):
    # a process pinned to 2 of 64 CPUs runs two trials at once, not 64
    argv = "simulate --n 2 --k 1 --m 2".split()
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert build_parser().parse_args(argv).threads == 2
    monkeypatch.delattr(os, "sched_getaffinity")  # where the OS reports no affinity
    assert build_parser().parse_args(argv).threads == 64


KS_WARNING = "warning: KS is measured against the tau = 1 law, which is not this run's limit"


@pytest.mark.parametrize("values, warns", [(None, False), ((1.0, -0.5) * 2, True)])
def test_ks_warning_for_tau_outside_the_law(tmp_path, capsys, values, warns):
    if values is None:
        spec = "const:2"
    else:
        (tmp_path / "tau.txt").write_text("".join(f"{v}\n" for v in values))
        spec = f"file:{tmp_path / 'tau.txt'}"
    rc, _, err = run(capsys, *"simulate --n 2 --k 2 --m 4 --trials 1".split(), "--tau", spec)
    assert rc == 0 and (KS_WARNING in err) == warns


def test_simulate_bad_tau_spec(capsys):
    rc, _, err = run(capsys, *"simulate --n 3 --k 1 --m 2 --tau bogus:1".split())
    assert rc == 2 and "usage error" in err


@pytest.mark.parametrize("kind, value", [("const", "inf"), ("file", "nan"), ("moments", "-inf")])
def test_non_finite_tau_is_usage_error(tmp_path, capsys, kind, value):
    if kind == "const":
        spec = f"const:{value}"
    else:
        (tmp_path / "tau.txt").write_text(f"1.0\n{value}\n")
        spec = f"{kind}:{tmp_path / 'tau.txt'}"
    rc, out, err = run(capsys, "moments", "--c", "1", "--p-max", "2", "--tau", spec)
    assert rc == 2 and out == ""
    assert f"usage error: --tau {spec!r} holds a value that is NaN or infinite" in err
    if kind != "moments":
        rc, _, err = run(capsys, *"simulate --n 2 --k 1 --m 2 --trials 1".split(), "--tau", spec)
        assert rc == 2 and "NaN or infinite" in err


def test_simulate_writes_deterministic_outputs(tmp_path, capsys):
    argv = [
        *"simulate --n 3 --k 2 --m 4 --trials 2 --seed 7 --p-max 3".split(),
        "--out",
        str(tmp_path),
    ]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    files = sorted(f.name for f in tmp_path.iterdir())
    assert len(files) == 3
    first = {f: (tmp_path / f).read_bytes() for f in files}

    # same config again: refused without --force
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and "refusing to overwrite" in err

    # with --force the bytes must be identical
    rc, _, _ = run(capsys, *argv, "--force")
    assert rc == 0
    for f in files:
        assert (tmp_path / f).read_bytes() == first[f]

    report = json.loads(first[[f for f in files if f.endswith(".json")][0]])
    assert report["config"]["n"] == 3
    assert "runtime" not in json.dumps(report)

    hist = first[[f for f in files if f.endswith("histogram.csv")][0]].decode()
    lines = hist.strip().split("\n")
    assert lines[0].startswith("# config=")
    assert lines[1] == "bin_left,bin_right,mass"
    assert lines[2].startswith("0.0,0.0,")  # zero-atom row
    masses = [float(line.split(",")[2]) for line in lines[2:]]
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    mom = first[[f for f in files if f.endswith("trial_moments.csv")][0]].decode()
    lines = mom.strip().split("\n")
    assert lines[1] == "trial,p,value"
    assert len(lines) == 2 + 2 * 3  # 2 trials x p_max 3


def test_m_from_c_is_one_rule(tmp_path, capsys):
    # c * n^k = 0.7 * 5 rounds to 3.5 in float, which rounds to 4; in exact
    # arithmetic it lies just below 3.5 and would round to 3
    rc, _, err = run(capsys, *"simulate --n 5 --k 1 --m 4 --c 0.7 --trials 1".split())
    assert rc == 0 and "warning: m=" not in err
    rc, _, _ = run(capsys, *"simulate --n 5 --k 1 --c 0.7 --trials 1 --out".split(), str(tmp_path))
    report = next(f for f in tmp_path.iterdir() if f.name.endswith(".json"))
    assert rc == 0 and json.loads(report.read_text())["config"]["m"] == 4


def test_simulate_different_seed_different_file_name(tmp_path, capsys):
    base = "simulate --n 3 --k 2 --m 4 --trials 1 --p-max 2".split()
    rc, _, _ = run(capsys, *base, "--seed", "1", "--out", str(tmp_path))
    assert rc == 0
    rc, _, _ = run(capsys, *base, "--seed", "2", "--out", str(tmp_path))
    assert rc == 0
    assert len(list(tmp_path.iterdir())) == 6  # two distinct triples


def test_simulate_dense_check_columns(tmp_path, capsys):
    rc, _, _ = run(
        capsys,
        *"simulate --n 2 --k 2 --m 3 --trials 2 --seed 3 --p-max 2 --dense-check".split(),
        "--out",
        str(tmp_path),
    )
    assert rc == 0
    mom = next(tmp_path.glob("*trial_moments.csv")).read_text()
    lines = mom.strip().split("\n")
    assert lines[1] == "trial,p,value,dense_value,abs_diff"
    for line in lines[2:]:
        assert float(line.split(",")[4]) < 1e-10
    report = json.loads(next(tmp_path.glob("*report.json")).read_text())
    assert report["dense_check"]["max_eigenvalue_deviation"] < 1e-10


def test_simulate_dense_check_signed_rademacher_above_one(tmp_path, capsys):
    # c = 2: m = 128 > n^k = 64, so each trial is solved on the n^k side
    (tmp_path / "tau.txt").write_text("".join(f"{(1.0, -0.5)[j % 2]}\n" for j in range(128)))
    argv = "simulate --n 4 --k 3 --c 2 --dist rademacher --trials 2 --seed 5 --dense-check"
    rc, _, _ = run(capsys, *argv.split(), "--tau", f"file:{tmp_path / 'tau.txt'}",
                   "--out", str(tmp_path / "out"))
    assert rc == 0
    report = json.loads(next((tmp_path / "out").glob("*report.json")).read_text())
    assert report["dense_check"]["max_eigenvalue_deviation"] <= 1e-10
    mom = next((tmp_path / "out").glob("*trial_moments.csv")).read_text().strip().split("\n")
    for line in mom[2:]:
        assert float(line.split(",")[4]) < 1e-10


@pytest.mark.parametrize("n, k, m, seed, atom", [(2, 4, 12, 12, 9 / 16), (3, 3, 27, 3, 8 / 27)])
def test_simulate_dense_check_signed_rank_deficient_gram_side(tmp_path, capsys, n, k, m, seed, atom):
    # m <= n^k with linearly dependent Rademacher tensor vectors: the zero
    # eigenvalue of D_tau G is defective, and the atom must still be exact
    (tmp_path / "tau.txt").write_text("".join(f"{(1.0, -0.5)[j % 2]}\n" for j in range(m)))
    argv = f"simulate --n {n} --k {k} --m {m} --dist rademacher --trials 1 --seed {seed} --dense-check"
    rc, _, _ = run(capsys, *argv.split(), "--tau", f"file:{tmp_path / 'tau.txt'}",
                   "--out", str(tmp_path / "out"))
    assert rc == 0
    report = json.loads(next((tmp_path / "out").glob("*report.json")).read_text())
    assert report["dense_check"]["max_eigenvalue_deviation"] <= 1e-10
    hist = next((tmp_path / "out").glob("*histogram.csv")).read_text().split("\n")
    assert hist[2].split(",")[:2] == ["0.0", "0.0"]
    assert float(hist[2].split(",")[2]) == pytest.approx(atom, rel=1e-15)


def test_simulate_dense_check_size_cap(capsys):
    rc, _, err = run(
        capsys, *"simulate --n 5 --k 3 --m 4 --trials 1 --dense-check".split()
    )
    assert rc == 2 and "dense-check" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"c": 1.0, "p_max": 3}))
    rc, out, _ = run(capsys, "moments", "--config", str(cfg))
    assert rc == 0
    assert out.strip().split("\n")[-1].startswith("3,5.0")
    rc, out, _ = run(capsys, "moments", "--config", str(cfg), "--p-max", "2")
    assert rc == 0
    assert out.strip().split("\n")[-1].startswith("2,2.0")
    # flags with a non-empty default come from the file too; the command line wins
    cfg.write_text(json.dumps({"c": 1.0, "p-max": 3, "tau": "const:2"}))
    rc, out, _ = run(capsys, "moments", "--config", str(cfg))
    assert rc == 0
    assert [line.split(",")[1] for line in out.strip().split("\n")[2:]] == ["2.0", "8.0", "40.0"]
    rc, out, _ = run(capsys, "moments", "--config", str(cfg), "--tau", "const:1")
    assert rc == 0
    assert out.strip().split("\n")[-1].startswith("3,5.0")
    # a key that names no flag of the subcommand is a usage error
    cfg.write_text(json.dumps({"c": 1.0, "bins": 5}))
    rc, out, err = run(capsys, "moments", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert "usage error" in err and "bins" in err
    # values are checked like command-line values
    cfg.write_text(json.dumps({"c": 1.0, "p_max": 2.5}))
    rc, _, err = run(capsys, "moments", "--config", str(cfg))
    assert rc == 2 and "invalid int value: '2.5'" in err


def test_config_file_sets_simulate_bins(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "k": 2, "m": 3, "trials": 1, "bins": 5}))
    rc, _, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
    assert rc == 0
    hist = next(tmp_path.glob("*histogram.csv")).read_text().strip().split("\n")
    assert len(hist) == 2 + 1 + 5  # comment, header, zero-atom row, 5 bins


FRONT_DOOR = {
    "verify": "verify sequences --p-max 3",
    "moments": "moments --c 0.5 --p-max 3 --n 2 --k 1 --m 1 --dist rademacher",
    "simulate": "simulate --n 2 --k 2 --m 3 --trials 2 --seed 1 --p-max 2 --dense-check",
    "mplaw": "mplaw --c 0.5 --grid-points 8",
}


@pytest.mark.parametrize("command", sorted(FRONT_DOOR))
def test_one_config_names_and_heads_every_file(tmp_path, capsys, command):
    rc, out, err = run(capsys, *FRONT_DOOR[command].split(), "--out", str(tmp_path))
    assert rc == 0 and "wrote" not in out
    files = sorted(tmp_path.iterdir())
    assert sorted(re.findall(r"^wrote (.+)$", err, re.M)) == [str(f) for f in files]
    configs = []
    for f in files:
        text = f.read_text()
        if f.suffix == ".json":
            configs.append(json.loads(text)["config"])
        else:
            head = text.split("\n", 1)[0]
            assert head.startswith("# config=")
            configs.append(json.loads(head[len("# config=") :]))
    config = configs[0]
    assert config["command"] == command and all(c == config for c in configs)
    tag = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]
    for f in files:
        assert f.name.startswith(command + "_") and tag in re.split(r"[_.]", f.name)


@pytest.mark.parametrize(
    "argv", ["simulate --n 2 --k 1 --m 2 --trials 1", "moments --c 1 --p-max 2"]
)
def test_changed_tau_file_gets_new_names(tmp_path, capsys, argv):
    tau, out = tmp_path / "tau.txt", tmp_path / "out"
    counts = []
    for values in ("1.0\n2.0\n", "2.0\n1.0\n"):
        tau.write_text(values)
        rc, _, _ = run(capsys, *argv.split(), "--tau", f"file:{tau}", "--out", str(out))
        assert rc == 0
        counts.append(len(list(out.iterdir())))
    assert counts[1] == 2 * counts[0]


def test_simulate_without_out_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *"simulate --n 2 --k 2 --m 3 --trials 1".split())
    assert rc == 0 and "p=1: mean=" in out
    assert list(tmp_path.iterdir()) == [] and "wrote" not in out + err


@pytest.mark.parametrize(
    "argv",
    [
        "moments --c inf",
        "moments --c 0.5 --p-max 3 --n 2 --dist rademacher",
        "simulate --n 2 --k 1 --c inf",
        "simulate --n 2 --k 1 --c 1e300",
        "simulate --n 2 --k 1 --m 2 --zero-tol nan",
        "simulate --n 2 --k 1 --m 2 --bins 0",
        "mplaw --c inf",
        "mplaw --c nan",
        "mplaw --c 0.5 --x-max nan",
        "simulate --n 2 --k 1 --m 2 --seed -1",
        "moments --c 1 --tau file:{empty}",
        "moments --c 1 --tau moments:{empty}",
        "simulate --n 2 --k 1 --m 3 --tau file:{two}",
        "moments --c 1 --config {array}",
        "moments --c 1 --tau moments:{two} --n 2 --k 1 --m 2",
        "simulate --n 2 --k 1",
        "simulate --n 2 --k 1 --m 2 --tau moments:{two}",
        "mplaw --c 1 --x-min 2 --x-max 1",
    ],
)
def test_bad_flag_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setattr(simulation, "run_trials", no_trial)
    files = {"empty": "", "two": "1.0\n2.0\n", "array": "[1, 2]"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = argv.format(**{name: tmp_path / name for name in files})
    rc, out, err = run(capsys, *argv.split(), "--out", str(tmp_path / "out"))
    assert rc == 2 and out == ""
    assert err.startswith("usage error: ") and "Traceback" not in err
    if "--seed" in argv:  # numpy's own message would name no flag
        assert "--seed=-1 must be >= 0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        "moments --c 1e200",
        "moments --c 1e300 --p-max 2",
        "moments --c 0.5 --tau const:1e200 --p-max 2",
        "moments --c 1 --tau file:{huge} --n 2 --k 2 --m 4",
    ],
)
def test_moment_beyond_double_range_is_numerical_failure(tmp_path, capsys, argv):
    # every flag is in its domain and p = 1 succeeds; the p = 2 moment exceeds a double
    (tmp_path / "huge").write_text("1e200\n" * 4)
    argv = argv.format(huge=tmp_path / "huge")
    rc, out, err = run(capsys, *argv.split(), "--out", str(tmp_path / "out"))
    assert rc == 3 and out == ""
    assert err.startswith("numerical failure: moment p=2 ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_file_values_are_checked(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "k": 1, "m": 2, "bins": 0}))
    rc, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert rc == 2 and "usage error: --bins=0 must be >= 1" in err


def test_config_file_sets_on_off_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    argv = "simulate --n 2 --k 1 --m 2 --trials 1 --p-max 1 --config".split()
    for value, header in ((True, "trial,p,value,dense_value,abs_diff"), (False, "trial,p,value")):
        cfg.write_text(json.dumps({"dense_check": value}))
        rc, _, _ = run(capsys, *argv, str(cfg), "--out", str(tmp_path / str(value)))
        (mom,) = (tmp_path / str(value)).glob("*_trial_moments.csv")
        assert rc == 0 and mom.read_text().split("\n")[1] == header
    cfg.write_text(json.dumps({"dense_check": "yes"}))
    rc, _, err = run(capsys, *argv, str(cfg))
    assert rc == 2 and "usage error: --config key 'dense_check' must be true or false" in err


def test_simulate_trace_mismatch_is_numerical_error(tmp_path, monkeypatch, capsys):
    eigh = simulation._eigh_in_place
    monkeypatch.setattr(simulation, "_eigh_in_place", lambda A: eigh(A) + 1)
    rc, out, err = run(capsys, *"simulate --n 2 --k 1 --m 2 --trials 1 --out".split(), str(tmp_path))
    assert rc == 3 and out == "" and "numerical failure: trace mismatch" in err
    assert list(tmp_path.iterdir()) == []


def test_mplaw_writes_file(tmp_path, capsys):
    rc, out, _ = run(
        capsys, "mplaw", "--c", "1", "--grid-points", "16", "--out", str(tmp_path)
    )
    assert rc == 0
    files = list(tmp_path.glob("mplaw_*.csv"))
    assert len(files) == 1
    text = files[0].read_text()
    assert text.startswith("# config=")
    assert "x,pdf,cdf" in text


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; the program must not import it
    src = os.path.dirname(os.path.dirname(os.path.abspath(tensormp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, tensormp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _same_bytes_for_every_blas_thread_count(tmp_path, argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tensormp.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = set()
    for blas in ("1", "2"):
        for threads in ("1", "2"):
            out = tmp_path / f"blas{blas}-threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "tensormp.cli", *argv, "--threads", threads,
                 "--out", str(out), "--force"],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=path),
                capture_output=True, check=True,
            )
            files = sorted(out.iterdir())
            assert len(files) == 3
            outputs.add(tuple((f.name, f.read_bytes()) for f in files))
    assert len(outputs) == 1


@needs_openblas
def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    argv = ["simulate", "--n", "6", "--k", "4", "--c", "0.5", "--trials", "2", "--seed", "5"]
    _same_bytes_for_every_blas_thread_count(tmp_path, argv)


@needs_openblas
def test_signed_gram_side_bytes_do_not_depend_on_blas_threads(tmp_path):
    # m = 648 <= n^k = 1296: each trial factors H by the pivoted Cholesky
    tau = tmp_path / "tau.txt"
    tau.write_text("".join(f"{(1.0, -0.5)[j % 2]}\n" for j in range(648)))
    argv = ["simulate", "--n", "6", "--k", "4", "--c", "0.5", "--trials", "2", "--seed", "5",
            "--tau", f"file:{tau}"]
    _same_bytes_for_every_blas_thread_count(tmp_path, argv)
