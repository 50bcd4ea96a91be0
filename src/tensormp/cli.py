"""Command line driver: verification suites, moment tables, experiments.

Subcommands
    verify    run a module's invariant suite and report per-claim status
    moments   emit a limiting-moment table as CSV
    simulate  run Monte Carlo trials; emit histogram, moments, JSON report
    mplaw     emit a density/CDF table for the limiting law

Every command is a pure function of its configuration: for a fixed BLAS
thread setting, identical flags and seed produce byte-identical output
files (wall-clock timing goes to stdout only). Output file names embed
a short hash of the configuration so distinct experiments never collide;
rerunning the same configuration requires --force to overwrite.

Exit codes: 0 success, 2 usage error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import combinatorics as comb
from . import graphs, moments, mplaw, sequences, simulation
from .errors import NumericalError


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- helpers

def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _config_line(config: dict) -> str:
    return "config=" + json.dumps(config, sort_keys=True)


def _write_text(path: str, text: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _parse_tau(spec: str, m: int | None):
    """Returns (coefficients tuple or None, moments tuple or None, label)."""
    if spec.startswith("const:"):
        v = float(spec.split(":", 1)[1])
        coeffs = (v,) * (m if m is not None else 1)
        return coeffs, None, spec
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            coeffs = tuple(float(line) for line in fh if line.strip())
        if not coeffs:
            raise UsageError(f"tau file {path} is empty")
        if m is not None and len(coeffs) != m:
            raise UsageError(f"tau file has {len(coeffs)} entries but m={m}")
        return coeffs, None, spec
    if spec.startswith("moments:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            mom = tuple(float(line) for line in fh if line.strip())
        if not mom:
            raise UsageError(f"moment file {path} is empty")
        return None, mom, spec
    raise UsageError(f"bad --tau spec {spec!r} (const:v | file:PATH | moments:PATH)")


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill still-unset flags from the optional JSON config file."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config) as fh:
        stored = json.load(fh)
    for key, value in stored.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None and hasattr(args, attr):
            setattr(args, attr, value)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


# ------------------------------------------------------------ verify suite

def _crossing_by_scan(alpha) -> bool:
    # independent quartic-scan diagnostic used only for cross-checking
    p = len(alpha)
    for j1, j2, j3, j4 in itertools.combinations(range(p), 4):
        if alpha[j1] == alpha[j3] != alpha[j2] == alpha[j4]:
            return True
    return False


def _verify_sequences(p_max: int) -> list[tuple[str, bool, str]]:
    claims = []
    for p in range(1, p_max + 1):
        seqs = sequences.enumerate_canonical(p)
        b = comb.bell(p)
        claims.append(
            (f"canonical count p={p}", len(seqs) == b, f"enumerated={len(seqs)} formula={b}")
        )
        by_s_ok = all(
            len(sequences.enumerate_canonical(p, s)) == comb.stirling2(p, s)
            for s in range(1, p + 1)
        )
        claims.append((f"per-s counts p={p}", by_s_ok, "enumerate(p,s) vs S(p,s)"))
        ok_canon = all(sequences.canonicalize(a) == a for a in seqs)
        claims.append((f"canonical fixed points p={p}", ok_canon, "canonicalize(a) == a"))
        ok_deg = all(
            sum(sequences.degree(a, t) for t in range(1, max(a) + 1)) == p for a in seqs
        )
        claims.append((f"degree sums p={p}", ok_deg, "sum_t degree = p"))
        if p <= 8:
            bad = next(
                (a for a in seqs if sequences.is_crossing(a) != _crossing_by_scan(a)), None
            )
            claims.append(
                (
                    f"crossing scan agreement p={p}",
                    bad is None,
                    "all sequences" if bad is None else f"counterexample alpha={bad}",
                )
            )
        ok_sorted = seqs == sorted(seqs)
        claims.append((f"lexicographic order p={p}", ok_sorted, "stable enumeration order"))
    return claims


def _verify_graphs(p_max: int) -> list[tuple[str, bool, str]]:
    claims = []
    for p in range(1, p_max + 1):
        seqs = sequences.enumerate_canonical(p)
        noncross = [a for a in seqs if not sequences.is_crossing(a)]
        # counting law
        for s in range(1, p + 1):
            got = sum(1 for a in noncross if max(a) == s)
            want = comb.c1_count(s, p)
            claims.append(
                (f"non-crossing count p={p} s={s}", got == want, f"enumerated={got} formula={want}")
            )
        catalan = math.comb(2 * p, p) // (p + 1)
        claims.append(
            (
                f"catalan total p={p}",
                len(noncross) == catalan,
                f"enumerated={len(noncross)} formula={catalan}",
            )
        )
        # tree-partner existence and uniqueness
        bad = None
        for a in seqs:
            s = max(a)
            found = [
                i
                for i in sequences.enumerate_canonical(p, p + 1 - s)
                if graphs.is_delta1(i, a)
            ]
            partner = graphs.delta1_partner(a)
            if sequences.is_crossing(a):
                ok = len(found) == 0 and partner is None
            else:
                ok = len(found) == 1 and partner == found[0]
            if not ok:
                bad = (a, found, partner)
                break
        claims.append(
            (
                f"tree partner uniqueness p={p}",
                bad is None,
                "all sequences" if bad is None else f"counterexample {bad}",
            )
        )
        # paired counts via the partition relabeling
        bad = None
        for a in noncross:
            s = max(a)
            for r in range(1, p + 1):
                brute = sorted(
                    i
                    for i in sequences.enumerate_canonical(p, r)
                    if graphs.classify(graphs.build_graph(i, a)) is graphs.GraphClass.PAIRED
                )
                image = graphs.paired_partners(a, r)
                want = comb.stirling2(p + 1 - s, r)
                if brute != image or len(brute) != want:
                    bad = (a, r, len(brute), want)
                    break
            if bad:
                break
        claims.append(
            (
                f"paired partner counts p={p}",
                bad is None,
                "all sequences" if bad is None else f"counterexample {bad}",
            )
        )
        # dichotomy over every canonical i
        if p <= 6:
            bad = None
            for a in noncross:
                for i in seqs:
                    if graphs.classify(graphs.build_graph(i, a)) is graphs.GraphClass.OTHER:
                        bad = (a, i)
                        break
                if bad:
                    break
            claims.append(
                (
                    f"dichotomy p={p}",
                    bad is None,
                    "paired or single only" if bad is None else f"counterexample {bad}",
                )
            )
        # tree partners never contain consecutive same-direction edges
        bad = None
        for a in noncross:
            partner = graphs.delta1_partner(a)
            g = graphs.build_graph(partner, a)
            if graphs.count_consecutive_violations(g) is not None:
                bad = a
                break
        claims.append(
            (
                f"tree partner diagnostics p={p}",
                bad is None,
                "no consecutive pairs" if bad is None else f"counterexample alpha={bad}",
            )
        )
    return claims


def _stirling_explicit(n: int, kk: int) -> int:
    num = sum((-1) ** (kk - i) * math.comb(kk, i) * i ** n for i in range(kk + 1))
    q, rem = divmod(num, math.factorial(kk))
    assert rem == 0
    return q


def _verify_stirling(p_max: int) -> list[tuple[str, bool, str]]:
    claims = []
    ok = all(
        comb.stirling2(n, kk) == _stirling_explicit(n, kk)
        for n in range(0, 21)
        for kk in range(0, n + 1)
    )
    claims.append(("recurrence vs explicit sum n<=20", ok, "exact equality"))
    nmax = min(p_max, 10)
    ok = all(
        sum(
            comb.stirling2(n, kk) * comb.falling_factorial(x, kk) for kk in range(1, n + 1)
        )
        == x ** n
        for n in range(1, nmax + 1)
        for x in range(0, 11)
    )
    claims.append((f"falling-factorial identity n<={nmax}", ok, "sum_k S(n,k) x^(k) = x^n"))
    ok = all(
        sum(comb.falling_factorial(n, r) * comb.stirling2(q, r) for r in range(1, q + 1))
        == n ** q
        for n in range(1, nmax + 1)
        for q in range(1, nmax + 1)
    )
    claims.append(
        (f"partition collapse n,q<={nmax}", ok, "sum_r n^(r) S(q,r) = n^q")
    )
    ok = all(
        comb.bell(n) == sum(comb.stirling2(n, kk) for kk in range(n + 1)) for n in range(11)
    )
    claims.append(("bell totals n<=10", ok, "bell = sum_k S(n,k)"))
    ok = all(
        comb.c1_count(s, p) == comb.c1_count(p + 1 - s, p)
        for p in range(1, 11)
        for s in range(1, p + 1)
    )
    claims.append(("narayana symmetry p<=10", ok, "N(p,s) = N(p,p+1-s)"))
    return claims


def _exhaustive_mean_trace(n, k, m, p, taus, alphabet):
    # average of (1/n^k) Tr M^p over every entry assignment; tiny sizes only
    nk = n ** k
    total = 0.0
    count = 0
    for bits in itertools.product(alphabet, repeat=n * m * k):
        xs = np.array(bits, dtype=complex).reshape(m, k, n) / math.sqrt(n)
        M = simulation.dense_matrix(xs, taus)
        total += float(np.trace(np.linalg.matrix_power(M, p)).real) / nk
        count += 1
    return total / count


def _verify_moments(p_max: int) -> list[tuple[str, bool, str]]:
    claims = []
    tau1 = moments.TauModel.constant(1.0)
    for c in (0.1, 0.5, 1.0, 2.0):
        ok = all(
            moments.limiting_moment(p, c, tau1) == moments.mp_moment(p, c)
            for p in range(1, p_max + 1)
        )
        claims.append(
            (f"limit equals narayana sum c={c}", ok, f"float-exact for p<={p_max}")
        )
        worst = max(
            abs(mplaw.quadrature_moment(p, c) - moments.mp_moment(p, c))
            for p in range(1, 7)
        )
        claims.append(
            (f"quadrature moments c={c}", worst <= 1e-6, f"max abs error {worst:.2e}")
        )
    rule = moments.rademacher_rule()
    worst = 0.0
    for k in (1, 2):
        for p in (1, 2, 3):
            tau = moments.TauModel.constant(1.0, m=2)
            exact = moments.exact_mean_trace_moment(2, k, 2, p, tau, rule)
            brute = _exhaustive_mean_trace(2, k, 2, p, [1.0, 1.0], (1.0, -1.0))
            worst = max(worst, abs(exact - brute) / max(1.0, abs(brute)))
    claims.append(
        ("exact oracle vs exhaustive (rademacher)", worst <= 1e-12, f"max rel error {worst:.2e}")
    )
    phase = moments.uniform_phase_rule()
    bad = None
    for p in range(1, min(p_max, 5) + 1):
        for a in sequences.enumerate_canonical(p):
            for i in sequences.enumerate_canonical(p):
                w = moments.graph_expectation_weight(i, a, phase)
                paired = (
                    graphs.classify(graphs.build_graph(i, a)) is graphs.GraphClass.PAIRED
                )
                if (w != 0) != paired:
                    bad = (i, a)
                    break
    claims.append(
        (
            "phase weight iff paired",
            bad is None,
            "all graphs" if bad is None else f"counterexample {bad}",
        )
    )
    ok = all(
        moments.inner_factor(a, 5, phase) == Fraction(5) ** (1 - max(a))
        for p in range(1, min(p_max, 6) + 1)
        for a in sequences.enumerate_canonical(p)
        if not sequences.is_crossing(a)
    )
    claims.append(("phase inner factor collapse", ok, "n^(1-s) at n=5"))
    return claims


_SUITES = {
    "sequences": _verify_sequences,
    "graphs": _verify_graphs,
    "stirling": _verify_stirling,
    "moments": _verify_moments,
}

_SUITE_DEFAULT_P = {"sequences": 7, "graphs": 6, "stirling": 10, "moments": 8}


def cmd_verify(args) -> int:
    _apply_config_file(args)
    p_max = args.p_max if args.p_max is not None else _SUITE_DEFAULT_P[args.suite]
    if not 1 <= p_max <= sequences.P_CAP:
        raise UsageError(f"--p-max {p_max} outside 1..{sequences.P_CAP}")
    t0 = time.perf_counter()
    claims = _SUITES[args.suite](p_max)
    elapsed = time.perf_counter() - t0
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in claims
    ]
    n_fail = sum(1 for _, ok, _ in claims if not ok)
    overall = "PASS" if n_fail == 0 else "FAIL"
    lines.append(f"OVERALL {overall} suite={args.suite} claims={len(claims)} failed={n_fail}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    print(f"({elapsed:.2f}s)", file=sys.stderr)
    if args.out is not None:
        config = {"command": "verify", "suite": args.suite, "p_max": p_max}
        path = os.path.join(args.out, f"verify_{args.suite}_{_config_hash(config)}.txt")
        _write_text(path, f"# {_config_line(config)}\n" + report, args.force)
        print(f"wrote {path}", file=sys.stderr)
    return 0 if n_fail == 0 else 4


# ------------------------------------------------------------ moment table

def cmd_moments(args) -> int:
    _apply_config_file(args)
    _require(args, "c")
    if args.c <= 0:
        raise UsageError(f"--c must be positive, got {args.c}")
    p_max = args.p_max if args.p_max is not None else 4
    if not 1 <= p_max <= sequences.P_CAP:
        raise UsageError(f"--p-max {p_max} outside 1..{sequences.P_CAP}")
    coeffs, mom, tau_label = _parse_tau(args.tau, args.m)
    tau = moments.TauModel(coefficients=coeffs, moments=mom)
    dims = (args.n, args.k, args.m)
    config = {
        "command": "moments",
        "p_max": p_max,
        "c": args.c,
        "tau": tau_label,
        "dist": args.dist,
        "n": args.n,
        "k": args.k,
        "m": args.m,
    }

    exact_fn = None
    if all(v is not None for v in dims):
        if min(dims) < 1:
            raise UsageError(f"dimensions must be positive, got n,k,m={dims}")
        if coeffs is None:
            raise UsageError("exact finite-size column needs explicit tau coefficients")
        dist = simulation.EntryDistribution.parse(args.dist)
        rule = dist.mixed_moment_rule()
        exact_tau = moments.TauModel(coefficients=coeffs)
        exact_fn = lambda p: moments.exact_mean_trace_moment(
            args.n, args.k, args.m, p, exact_tau, rule
        )
        if round(args.c * args.n ** args.k) != args.m:
            print(
                f"warning: m={args.m} differs from round(c*n^k)={round(args.c * args.n ** args.k)}",
                file=sys.stderr,
            )
    elif args.tau.startswith("const:"):
        v = float(args.tau.split(":", 1)[1])
        exact_fn = lambda p: v ** p * moments.mp_moment(p, args.c)

    try:
        rows = []
        for p in range(1, p_max + 1):
            theory = moments.limiting_moment(p, args.c, tau)
            rows.append((p, theory, exact_fn(p) if exact_fn is not None else None))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    csv_text = moments.moment_table_csv(rows, config_line=_config_line(config))
    sys.stdout.write(csv_text)
    if args.out is not None:
        path = os.path.join(args.out, f"moments_{_config_hash(config)}.csv")
        _write_text(path, csv_text, args.force)
        print(f"wrote {path}", file=sys.stderr)
    return 0


# ------------------------------------------------------------- simulation

def cmd_simulate(args) -> int:
    _apply_config_file(args)
    _require(args, "n", "k")
    if args.m is None and args.c is None:
        raise UsageError("give --m or --c")
    if args.n < 1 or args.k < 1:
        raise UsageError(f"dimensions must be positive, got n={args.n} k={args.k}")
    nk = args.n ** args.k
    m = args.m if args.m is not None else round(args.c * nk)
    if m < 1:
        raise UsageError(f"m={m} after rounding c*n^k; nothing to sample")
    if args.m is not None and args.c is not None and round(args.c * nk) != args.m:
        print(
            f"warning: m={args.m} differs from round(c*n^k)={round(args.c * nk)}",
            file=sys.stderr,
        )
    c_ref = args.c if args.c is not None else m / nk
    p_max = args.p_max if args.p_max is not None else 4
    if not 1 <= p_max <= sequences.P_CAP:
        raise UsageError(f"--p-max {p_max} outside 1..{sequences.P_CAP}")
    trials = args.trials if args.trials is not None else 10
    if trials < 1:
        raise UsageError(f"--trials must be positive, got {trials}")
    seed = args.seed if args.seed is not None else 0
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    zero_tol = args.zero_tol if args.zero_tol is not None else 1e-10
    need = simulation.estimate_gram_bytes(m)
    if need > args.mem_limit:
        raise UsageError(
            f"estimated working set {need / 1e9:.2f} GB exceeds limit "
            f"{args.mem_limit / 1e9:.2f} GB (m={m}); raise --mem-limit to proceed"
        )
    coeffs, mom, tau_label = _parse_tau(args.tau, m)
    if coeffs is None:
        raise UsageError("simulation needs explicit tau coefficients, not moments")
    dist = simulation.EntryDistribution.parse(args.dist)
    if args.dense_check and nk > 64:
        raise UsageError(f"--dense-check limited to n^k <= 64, got {nk}")

    config = {
        "command": "simulate",
        "n": args.n,
        "k": args.k,
        "m": m,
        "c": c_ref,
        "dist": dist.label,
        "tau": tau_label,
        "p_max": p_max,
        "trials": trials,
        "seed": seed,
        "bins": args.bins,
        "dense_check": bool(args.dense_check),
        "zero_tol": zero_tol,
    }
    tag = _config_hash(config)
    cfg_line = _config_line(config)

    out_dir = args.out if args.out is not None else "."
    paths = {
        "histogram": os.path.join(out_dir, f"simulate_{tag}_histogram.csv"),
        "trial_moments": os.path.join(out_dir, f"simulate_{tag}_trial_moments.csv"),
        "report": os.path.join(out_dir, f"simulate_{tag}_report.json"),
    }
    if not args.force:
        for path in paths.values():
            if os.path.exists(path):  # refuse before the expensive part
                raise UsageError(f"refusing to overwrite {path} (use --force)")

    t0 = time.perf_counter()
    report = simulation.run_trials(
        args.n,
        args.k,
        m,
        dist,
        coeffs,
        p_max,
        trials,
        seed,
        c=c_ref,
        threads=threads,
        zero_tol=zero_tol,
    )
    elapsed = time.perf_counter() - t0

    dense_cols = {}
    dense_summary = None
    if args.dense_check:
        worst = 0.0
        for t in range(trials):
            vecs = simulation.sample_base_vectors(args.n, args.k, m, dist, seed, trial=t)
            M = simulation.dense_matrix(vecs, np.asarray(coeffs))
            lam_dense = simulation.hermitian_eigenvalues(M)
            sample = report.outcomes[t].sample
            lam_red = np.sort(
                np.concatenate(
                    [np.zeros(sample.zero_multiplicity), sample.nonzero_eigenvalues]
                )
            )
            worst = max(worst, float(np.max(np.abs(lam_dense - lam_red))))
            for p in range(1, p_max + 1):
                dense_cols[(t, p)] = float(np.sum(lam_dense ** p)) / nk
        dense_summary = {"max_eigenvalue_deviation": worst}

    # histogram CSV (pooled over trials, zero atom as its own row)
    rows = simulation.histogram_rows([o.sample for o in report.outcomes], bins=args.bins)
    hist_lines = [f"# {cfg_line}", "bin_left,bin_right,mass"]
    hist_lines += [f"{l!r},{r!r},{w!r}" for l, r, w in rows]
    hist_text = "\n".join(hist_lines) + "\n"

    # per-trial moment CSV
    header = "trial,p,value" + (",dense_value,abs_diff" if args.dense_check else "")
    mom_lines = [f"# {cfg_line}", header]
    for o in report.outcomes:
        for p in range(1, p_max + 1):
            v = o.sample.trace_moments[p - 1]
            line = f"{o.trial},{p},{v!r}"
            if args.dense_check:
                dv = dense_cols[(o.trial, p)]
                line += f",{dv!r},{abs(v - dv)!r}"
            mom_lines.append(line)
    mom_text = "\n".join(mom_lines) + "\n"

    payload = report.to_json_dict()
    if dense_summary is not None:
        payload["dense_check"] = dense_summary
    json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    _write_text(paths["histogram"], hist_text, args.force)
    _write_text(paths["trial_moments"], mom_text, args.force)
    _write_text(paths["report"], json_text, args.force)

    print(f"simulate n={args.n} k={args.k} m={m} c={c_ref} dist={dist.label} trials={trials}")
    for p in range(1, p_max + 1):
        line = (
            f"  p={p}: mean={report.moment_means[p - 1]:.6f}"
            f" se={report.moment_ses[p - 1]:.2e}"
        )
        print(line)
    if report.ks_values is not None:
        print(f"  ks: mean={report.mean_ks:.4f} max={max(report.ks_values):.4f}")
    for path in paths.values():
        print(f"wrote {path}")
    print(f"({elapsed:.2f}s)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- law table

def cmd_mplaw(args) -> int:
    _apply_config_file(args)
    _require(args, "c")
    if args.c <= 0:
        raise UsageError(f"--c must be positive, got {args.c}")
    points = args.grid_points if args.grid_points is not None else 512
    if points < 2:
        raise UsageError("--grid-points must be at least 2")
    law = mplaw.MPLaw(args.c)
    lo = args.x_min if args.x_min is not None else 0.0
    hi = args.x_max if args.x_max is not None else law.b * 1.05
    if hi <= lo:
        raise UsageError(f"empty grid [{lo}, {hi}]")
    xs = np.linspace(lo, hi, points)
    if law.atom > 0 and lo <= 0.0 <= hi:
        xs = np.unique(np.append(xs, 0.0))  # make the atom row explicit
    config = {
        "command": "mplaw",
        "c": args.c,
        "x_min": lo,
        "x_max": hi,
        "grid_points": points,
    }
    text = mplaw.law_table_csv(args.c, xs, config_line=_config_line(config))
    if args.out is not None:
        path = os.path.join(args.out, f"mplaw_{_config_hash(config)}.csv")
        _write_text(path, text, args.force)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


# -------------------------------------------------------------- arg parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensormp",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--config", help="JSON file with defaults; flags override")
        sp.add_argument("--out", help="output directory (default: print only)")
        sp.add_argument("--force", action="store_true", help="overwrite existing outputs")

    sp = sub.add_parser("verify", help="run a module invariant suite")
    sp.add_argument("suite", choices=sorted(_SUITES))
    sp.add_argument("--p-max", type=int, default=None, help=f"sequence length bound (<= {sequences.P_CAP})")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("moments", help="limiting moment table")
    sp.add_argument("--p-max", type=int, default=None, help="max moment order (default 4)")
    sp.add_argument("--c", type=float, default=None, help="ratio parameter m/n^k")
    sp.add_argument("--tau", default="const:1", help="const:v | file:PATH | moments:PATH (default const:1)")
    sp.add_argument("--dist", default="phase", help="phase | rademacher | roots:q (default phase)")
    sp.add_argument("--n", type=int, default=None, help="base dimension for the exact column")
    sp.add_argument("--k", type=int, default=None, help="tensor legs for the exact column")
    sp.add_argument("--m", type=int, default=None, help="sample count for the exact column")
    common(sp)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("simulate", help="Monte Carlo experiment")
    sp.add_argument("--n", type=int, default=None, help="base dimension")
    sp.add_argument("--k", type=int, default=None, help="tensor legs")
    sp.add_argument("--m", type=int, default=None, help="number of rank-one terms")
    sp.add_argument("--c", type=float, default=None, help="sets m = round(c n^k) when --m absent")
    sp.add_argument("--dist", default="phase", help="phase | rademacher | roots:q (default phase)")
    sp.add_argument("--tau", default="const:1", help="const:v | file:PATH (default const:1)")
    sp.add_argument("--p-max", type=int, default=None, help="max trace-moment order (default 4)")
    sp.add_argument("--trials", type=int, default=None, help="number of trials (default 10)")
    sp.add_argument("--seed", type=int, default=None, help="experiment seed (default 0)")
    sp.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: cpu count; for a fixed BLAS thread setting results do not depend on it)",
    )
    sp.add_argument("--bins", type=int, default=60, help="histogram bins (default 60)")
    sp.add_argument(
        "--zero-tol",
        type=float,
        default=None,
        help="relative threshold folding eigenvalues into the zero atom (default 1e-10)",
    )
    sp.add_argument("--dense-check", action="store_true", help="compare against the n^k-dimensional path (n^k <= 64)")
    sp.add_argument("--mem-limit", type=float, default=4e9, help="refuse runs whose estimate exceeds this many bytes")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("mplaw", help="density/CDF table of the limiting law")
    sp.add_argument("--c", type=float, default=None, help="ratio parameter (must be > 0)")
    sp.add_argument("--grid-points", type=int, default=None, help="grid size (default 512)")
    sp.add_argument("--x-min", type=float, default=None, help="grid start (default 0)")
    sp.add_argument("--x-max", type=float, default=None, help="grid end (default 1.05 b)")
    common(sp)
    sp.set_defaults(func=cmd_mplaw)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
