"""Command line driver: verification suites, moment tables, experiments.

Subcommands
    verify    run a module's invariant suite and report per-claim status
    moments   emit a limiting-moment table as CSV
    simulate  run Monte Carlo trials; emit histogram, moments, JSON report
    mplaw     emit a density/CDF table for the limiting law

Every command is a pure function of its configuration: for a fixed BLAS
thread setting, identical flags and seed produce byte-identical output
files (wall-clock timing goes to stderr only). Output file names embed
a short hash of the configuration so distinct experiments never collide;
rerunning the same configuration requires --force to overwrite.

Exit codes: 0 success, 2 usage error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import claims, moments, mplaw, sequences, simulation
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
    kind, _, arg = spec.partition(":")
    if kind == "const":
        values = (float(arg),)
    elif kind in ("file", "moments"):
        with open(arg) as fh:
            values = tuple(float(line) for line in fh if line.strip())
        if not values:
            raise UsageError(f"{'tau' if kind == 'file' else 'moment'} file {arg} is empty")
    else:
        raise UsageError(f"bad --tau spec {spec!r} (const:v | file:PATH | moments:PATH)")
    if not np.all(np.isfinite(values)):
        raise UsageError(f"--tau {spec!r} holds a value that is NaN or infinite")
    if kind == "moments":
        return None, values, spec
    if kind == "const":
        values *= m if m is not None else 1
    elif m is not None and len(values) != m:
        raise UsageError(f"tau file has {len(values)} entries but m={m}")
    return values, None, spec


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv. A --config JSON object is read as flags placed before the
    command line's own, so it can set every flag and the command line wins."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    with open(args.config) as fh:
        stored = json.load(fh)
    if not isinstance(stored, dict):
        raise UsageError(f"--config file {args.config} must hold a JSON object")
    tokens = []
    for key, value in stored.items():
        dest = key.replace("-", "_")
        if dest in ("command", "func", "config", "suite") or not hasattr(args, dest):
            raise UsageError(f"--config key {key!r} names no flag of {args.command}")
        flag = "--" + dest.replace("_", "-")
        if not isinstance(getattr(args, dest), bool):
            tokens += [flag, str(value)]
        elif isinstance(value, bool):  # an on/off flag
            tokens += [flag] if value else []
        else:
            raise UsageError(f"--config key {key!r} must be true or false")
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


# ------------------------------------------------------------ verify suite

def cmd_verify(args) -> int:
    p_max = args.p_max if args.p_max is not None else claims.DEFAULT_P_MAX[args.suite]
    if not 1 <= p_max <= sequences.P_CAP:
        raise UsageError(f"--p-max {p_max} outside 1..{sequences.P_CAP}")
    suite = [c for c in claims.CLAIMS.values() if c.suite == args.suite]
    lines = []
    for claim in suite:
        t0 = time.perf_counter()
        bad = claim.run(p_max)
        label = claim.label(p_max)
        print(f"{time.perf_counter() - t0:8.3f}s  {label}", file=sys.stderr)
        lines.append(f"PASS {label}: {claim.statement}" if bad is None else f"FAIL {label}: {bad}")
    n_fail = sum(1 for line in lines if line.startswith("FAIL"))
    overall = "FAIL" if n_fail else "PASS"
    lines.append(f"OVERALL {overall} suite={args.suite} claims={len(suite)} failed={n_fail}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out is not None:
        config = {"command": "verify", "suite": args.suite, "p_max": p_max}
        path = os.path.join(args.out, f"verify_{args.suite}_{_config_hash(config)}.txt")
        _write_text(path, f"# {_config_line(config)}\n" + report, args.force)
        print(f"wrote {path}", file=sys.stderr)
    return 0 if n_fail == 0 else 4


# ------------------------------------------------------------ moment table

def cmd_moments(args) -> int:
    _require(args, "c")
    if args.c <= 0:
        raise UsageError(f"--c must be positive, got {args.c}")
    if not 1 <= args.p_max <= sequences.P_CAP:
        raise UsageError(f"--p-max {args.p_max} outside 1..{sequences.P_CAP}")
    coeffs, mom, tau_label = _parse_tau(args.tau, args.m)
    tau = moments.TauModel(coefficients=coeffs, moments=mom)
    dims = (args.n, args.k, args.m)
    config = {
        "command": "moments",
        "p_max": args.p_max,
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
        exact_fn = lambda p: coeffs[0] ** p * moments.mp_moment(p, args.c)

    try:
        rows = []
        for p in range(1, args.p_max + 1):
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
    p_max, trials, seed, zero_tol = args.p_max, args.trials, args.seed, args.zero_tol
    if not 1 <= p_max <= sequences.P_CAP:
        raise UsageError(f"--p-max {p_max} outside 1..{sequences.P_CAP}")
    if trials < 1:
        raise UsageError(f"--trials must be positive, got {trials}")
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
        threads=args.threads,
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
    for p, (mean, se) in enumerate(zip(report.moment_means, report.moment_ses), start=1):
        print(f"  p={p}: mean={mean:.6f} se={se:.2e}")
    print(f"  ks: mean={report.mean_ks:.4f} max={max(report.ks_values):.4f}")
    for path in paths.values():
        print(f"wrote {path}")
    print(f"({elapsed:.2f}s)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- law table

def cmd_mplaw(args) -> int:
    _require(args, "c")
    if args.c <= 0:
        raise UsageError(f"--c must be positive, got {args.c}")
    if args.grid_points < 2:
        raise UsageError("--grid-points must be at least 2")
    law = mplaw.MPLaw(args.c)
    lo = args.x_min
    hi = args.x_max if args.x_max is not None else law.b * 1.05
    if hi <= lo:
        raise UsageError(f"empty grid [{lo}, {hi}]")
    xs = np.linspace(lo, hi, args.grid_points)
    if law.atom > 0 and lo <= 0.0 <= hi:
        xs = np.unique(np.append(xs, 0.0))  # make the atom row explicit
    config = {
        "command": "mplaw",
        "c": args.c,
        "x_min": lo,
        "x_max": hi,
        "grid_points": args.grid_points,
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
    sp.add_argument("suite", choices=sorted(claims.DEFAULT_P_MAX))
    sp.add_argument("--p-max", type=int, default=None, help=f"sequence length bound (<= {sequences.P_CAP})")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("moments", help="limiting moment table")
    sp.add_argument("--p-max", type=int, default=4, help="max moment order (default 4)")
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
    sp.add_argument("--p-max", type=int, default=4, help="max trace-moment order (default 4)")
    sp.add_argument("--trials", type=int, default=10, help="number of trials (default 10)")
    sp.add_argument("--seed", type=int, default=0, help="experiment seed (default 0)")
    sp.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads (default: cpu count; for a fixed BLAS thread setting results do not depend on it)",
    )
    sp.add_argument("--bins", type=int, default=60, help="histogram bins (default 60)")
    sp.add_argument(
        "--zero-tol",
        type=float,
        default=1e-10,
        help="relative threshold folding eigenvalues into the zero atom (default 1e-10)",
    )
    sp.add_argument("--dense-check", action="store_true", help="compare against the n^k-dimensional path (n^k <= 64)")
    sp.add_argument("--mem-limit", type=float, default=4e9, help="refuse runs whose estimate exceeds this many bytes")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("mplaw", help="density/CDF table of the limiting law")
    sp.add_argument("--c", type=float, default=None, help="ratio parameter (must be > 0)")
    sp.add_argument("--grid-points", type=int, default=512, help="grid size (default 512)")
    sp.add_argument("--x-min", type=float, default=0.0, help="grid start (default 0)")
    sp.add_argument("--x-max", type=float, default=None, help="grid end (default 1.05 b)")
    common(sp)
    sp.set_defaults(func=cmd_mplaw)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 2
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
