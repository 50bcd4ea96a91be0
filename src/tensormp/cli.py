"""Command line driver: verification suites, moment tables, experiments.

Subcommands
    verify    run a module's invariant suite and report per-claim status
    moments   emit a limiting-moment table as CSV
    simulate  run Monte Carlo trials; emit histogram, moments, JSON report
    mplaw     emit a density/CDF table for the limiting law

Every numeric flag is checked once against its domain in DOMAINS after
parsing, so values from --config are checked too. Each command builds one
configuration dict: a short hash of it names the output files, every
file starts with it as a "# config=" line, and report.json echoes it as
"config". Files are written only when --out is given, each announced by
a "wrote <path>" line on stderr. Existing files are refused before any
work unless --force is given.

Every command is a pure function of its configuration: identical flags
and seed produce byte-identical output files (wall-clock timing goes to
stderr only), whatever --threads is. With the OpenBLAS that numpy ships,
simulate runs every trial on one BLAS thread, so on a given numpy build
the bytes do not depend on the BLAS thread count either; with another
BLAS they hold for a fixed BLAS thread setting.

Exit codes: 0 success, 2 usage error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import claims, moments, mplaw, sequences, simulation
from .errors import NumericalError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a UsageError, so main returns 2."""

    def error(self, message):
        raise UsageError(message)


# ------------------------------------------------------------ front door

# Valid values of each numeric flag, checked once in main after parsing,
# so --config values are checked too. P_CAP bounds the p_max of verify and
# moments, whose claims and exact column enumerate sequences.
DOMAINS = {
    **dict.fromkeys(("n", "k", "m", "trials", "bins", "threads"), (">= 1", lambda v: v >= 1)),
    "p_max": (f"in 1..{sequences.P_CAP}", lambda v: 1 <= v <= sequences.P_CAP),
    "c": ("finite and > 0", lambda v: 0 < v < math.inf),
    "mem_limit": ("> 0", lambda v: v > 0),
    "grid_points": (">= 2", lambda v: v >= 2),
    "seed": (">= 0", lambda v: v >= 0),
    **dict.fromkeys(("x_min", "x_max"), ("finite", math.isfinite)),
}


# simulate enumerates nothing: its trace moments are eigenvalue power
# sums at any order, and one that overflows is a NumericalError (exit 3).
COMMAND_DOMAINS = {"simulate": {"p_max": (">= 1", lambda v: v >= 1)}}


def _check(name: str, value, label: str | None = None, command: str | None = None):
    """Returns value if it lies in the domain of flag name (for command,
    when it has its own), else UsageError."""
    rule, ok = COMMAND_DOMAINS.get(command, {}).get(name, DOMAINS[name])
    if value is not None and not ok(value):
        raise UsageError(f"{label or '--' + name.replace('_', '-')}={value} must be {rule}")
    return value


def _digest(obj) -> str:
    canon = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _head(config: dict, text: str) -> str:
    """text under the "# config=" line that starts every text output."""
    return f"# config={json.dumps(config, sort_keys=True)}\n{text}"


def _csv(config: dict, header: str, rows) -> str:
    """A CSV table under the "# config=" line: the header, then one line per
    row, each value as its repr and None as an empty cell."""
    lines = (",".join("" if v is None else repr(v) for v in row) for row in rows)
    return _head(config, "\n".join([header, *lines]) + "\n")


def _outputs(args, config: dict, prefix: str, *suffixes: str):
    """Claims one run's output files before any work is done.

    The file names are prefix_<hash of config><suffix>. Existing files are
    refused unless --force. Returns write(*texts), which writes the texts
    in the order of suffixes under --out and reports each path on stderr;
    without --out it writes nothing.
    """
    if args.out is None:
        return lambda *texts: None
    tag = _digest(config)
    paths = [os.path.join(args.out, f"{prefix}_{tag}{s}") for s in suffixes]
    for path in paths:
        if os.path.exists(path) and not args.force:
            raise UsageError(f"refusing to overwrite {path} (use --force)")

    def write(*texts: str) -> None:
        os.makedirs(args.out or ".", exist_ok=True)
        for path, text in zip(paths, texts, strict=True):
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
            print(f"wrote {path}", file=sys.stderr)

    return write


def _parse_tau(spec: str, m: int | None):
    """Returns (TauModel, label). const:v is the one-value model, which
    stands for m equal weights; a file: tau needs m entries when m is
    given. The label of a file: or moments: spec carries a digest of the
    parsed values, so a changed file at the same path gets new output names.
    """
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
    label = spec if kind == "const" else f"{spec}#{_digest(values)}"
    if kind == "moments":
        return moments.TauModel(moments=values), label
    if kind == "file" and m is not None and len(values) != m:
        raise UsageError(f"tau file has {len(values)} entries but m={m}")
    return moments.TauModel(coefficients=values), label


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
        flag, on_off = "--" + dest.replace("_", "-"), isinstance(getattr(args, dest), bool)
        if on_off != isinstance(value, bool) or value is None or isinstance(value, (list, dict)):
            want = "true or false" if on_off else "a number or a string"
            raise UsageError(f"--config key {key!r} must be {want}, not {json.dumps(value)}")
        tokens += ([flag] if value else []) if on_off else [flag, str(value)]
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _m_of_c(c: float, n: int, k: int) -> int:
    """The m that ratio c picks: round(c * n^k) in float, exact past float range."""
    try:
        return round(c * n**k)
    except OverflowError:
        return round(Fraction(c) * n**k)


def _warn_ratio(c, n: int, k: int, m: int) -> None:
    if c is not None and (want := _m_of_c(c, n, k)) != m:
        print(f"warning: m={m} differs from round(c*n^k)={want}", file=sys.stderr)


# ------------------------------------------------------------ verify suite

def cmd_verify(args) -> int:
    p_max = args.p_max if args.p_max is not None else claims.DEFAULT_P_MAX[args.suite]
    config = {"command": "verify", "suite": args.suite, "p_max": p_max}
    write = _outputs(args, config, f"verify_{args.suite}", ".txt")
    suite = [c for c in claims.CLAIMS.values() if c.suite == args.suite]
    lines = []
    for claim in suite:
        p, t0 = min(p_max, claim.cap), time.perf_counter()
        bad, label = claim.run(p), claim.label(p)
        print(f"{time.perf_counter() - t0:8.3f}s  {label}", file=sys.stderr)
        lines.append(f"PASS {label}: {claim.statement}" if bad is None else f"FAIL {label}: {bad}")
    n_fail = sum(1 for line in lines if line.startswith("FAIL"))
    overall = "FAIL" if n_fail else "PASS"
    lines.append(f"OVERALL {overall} suite={args.suite} claims={len(suite)} failed={n_fail}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    write(_head(config, report))
    return 0 if n_fail == 0 else 4


# ------------------------------------------------------------ moment table

def cmd_moments(args) -> int:
    _require(args, "c")
    dims = (args.n, args.k, args.m)
    if None in dims and dims != (None, None, None):
        raise UsageError("the exact column needs all of --n, --k and --m, or none of them")
    tau, tau_label = _parse_tau(args.tau, args.m)
    exact_fn = None
    if args.m is not None:
        if tau.coefficients is None:
            raise UsageError("exact finite-size column needs explicit tau coefficients")
        rule = moments.EntryDistribution.parse(args.dist).mixed_moment_rule()
        exact_fn = lambda p: moments.exact_mean_trace_moment(*dims, p, tau, rule)
        _warn_ratio(args.c, *dims)
    elif args.tau.startswith("const:"):
        exact_fn = lambda p: tau.coefficients[0] ** p * moments.mp_moment(p, args.c)
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
    write = _outputs(args, config, "moments", ".csv")

    rows = []
    for p in range(1, args.p_max + 1):
        try:
            theory = moments.limiting_moment(p, args.c, tau)
            value = exact_fn(p) if exact_fn is not None else None
        except OverflowError as exc:
            raise NumericalError(f"moment p={p} is beyond double range ({exc})") from exc
        rows.append((p, theory, value, None if value is None else abs(theory - value)))
    csv_text = _csv(config, "p,theory,exact_or_mc,abs_error", rows)
    sys.stdout.write(csv_text)
    write(csv_text)
    return 0


# ------------------------------------------------------------- simulation

def cmd_simulate(args) -> int:
    _require(args, "n", "k")
    if args.m is None and args.c is None:
        raise UsageError("give --m or --c")
    nk = args.n ** args.k
    if args.m is None:
        m = _check("m", _m_of_c(args.c, args.n, args.k), "m=round(c*n^k)")
    else:
        m = args.m
        _warn_ratio(args.c, args.n, args.k, m)
    c_ref = args.c if args.c is not None else m / nk
    tau, tau_label = _parse_tau(args.tau, m)
    if tau.coefficients is None:
        raise UsageError("simulation needs explicit tau coefficients, not moments")
    dist = moments.EntryDistribution.parse(args.dist)
    concurrent = min(args.threads, args.trials)
    signed = min(tau.coefficients) < 0
    need = simulation.estimate_gram_bytes(m, nk, signed, real=dist.kind == "rademacher") * concurrent
    if need > args.mem_limit:
        gb = lambda size: f"{Decimal(size).scaleb(-9):.3g} GB"  # ints beyond float range too
        raise UsageError(
            f"estimated working set {gb(need)} ({concurrent} concurrent trials at "
            f"m={Decimal(m):.3g}) exceeds limit {gb(args.mem_limit)}; raise --mem-limit or lower --threads"
        )
    coeffs = tau.coefficients * (m // len(tau.coefficients))  # m weights, const: expanded
    if simulation.constant_weight(coeffs) is None:
        print("warning: KS is measured against the tau = 1 law, which is not this run's limit",
              file=sys.stderr)
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
        "p_max": args.p_max,
        "trials": args.trials,
        "seed": args.seed,
        "bins": args.bins,
        "dense_check": bool(args.dense_check),
    }
    write = _outputs(
        args, config, "simulate", "_histogram.csv", "_trial_moments.csv", "_report.json"
    )

    t0 = time.perf_counter()
    report = simulation.run_trials(
        args.n, args.k, m, dist, coeffs, args.p_max, args.trials, args.seed,
        c=c_ref, threads=args.threads,
    )
    elapsed = time.perf_counter() - t0

    dense = {}  # --dense-check: each trial through the n^k-dimensional matrix
    if args.dense_check:
        for o in report.outcomes:
            vecs = simulation.sample_base_vectors(args.n, args.k, m, dist, args.seed, trial=o.trial)
            dense[o.trial] = claims.dense_check(o.sample, vecs, coeffs, args.p_max)
    hist = simulation.histogram_rows([o.sample for o in report.outcomes], bins=args.bins)
    mom = []
    for o in report.outcomes:
        dvs = dense[o.trial][1] if args.dense_check else [None] * args.p_max
        for p, (v, dv) in enumerate(zip(o.sample.trace_moments, dvs), start=1):
            mom.append((o.trial, p, v) if dv is None else (o.trial, p, v, dv, abs(v - dv)))
    payload = {"config": config, **report.to_json_dict()}
    if args.dense_check:
        payload["dense_check"] = {"max_eigenvalue_deviation": max(d for d, _ in dense.values())}
    write(
        _csv(config, "bin_left,bin_right,mass", hist),
        _csv(config, "trial,p,value" + (",dense_value,abs_diff" if args.dense_check else ""), mom),
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
    )

    print(f"simulate n={args.n} k={args.k} m={m} c={c_ref} dist={dist.label} trials={args.trials}")
    for p, (mean, se) in enumerate(zip(report.moment_means, report.moment_ses), start=1):
        print(f"  p={p}: mean={mean:.6f} se={se:.2e}")
    print(f"  ks: mean={report.mean_ks:.4f} max={max(report.ks_values):.4f}")
    print(f"({elapsed:.2f}s)", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- law table

def cmd_mplaw(args) -> int:
    _require(args, "c")
    law = mplaw.MPLaw(args.c)
    # the default grid spans [a - w/2, b + w/2] within [0, 1.05 b], w = b - a,
    # and at least one ulp past each edge where w is below float resolution
    margin = max(law.width / 2.0, math.ulp(law.b))
    lo = args.x_min if args.x_min is not None else max(0.0, law.a - margin)
    hi = args.x_max if args.x_max is not None else min(1.05 * law.b, law.b + margin)
    if hi <= lo:
        raise UsageError(f"empty grid [{lo}, {hi}]")
    config = {
        "command": "mplaw",
        "c": args.c,
        "x_min": lo,
        "x_max": hi,
        "grid_points": args.grid_points,
    }
    write = _outputs(args, config, "mplaw", ".csv")
    text = _head(config, mplaw.law_table_csv(args.c, np.linspace(lo, hi, args.grid_points)))
    if args.out is None:
        sys.stdout.write(text)
    write(text)
    return 0


# -------------------------------------------------------------- arg parser

def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tensormp",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--config", help="JSON file with defaults; flags override")
        sp.add_argument("--out", help="output directory; files are written only when it is given")
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
    sp.add_argument("--p-max", type=int, default=4, help="max trace-moment order, any p >= 1 (default 4)")
    sp.add_argument("--trials", type=int, default=10, help="number of trials (default 10)")
    sp.add_argument("--seed", type=int, default=0, help="experiment seed (default 0)")
    sp.add_argument(
        "--threads",
        type=int,
        default=_usable_cpus(),
        help="trial worker threads, one core each with numpy's OpenBLAS (default: usable CPUs; results do not depend on it)",
    )
    sp.add_argument("--bins", type=int, default=60, help="histogram bins (default 60)")
    sp.add_argument("--dense-check", action="store_true", help="compare against the n^k-dimensional path (n^k <= 64)")
    sp.add_argument("--mem-limit", type=float, default=4e9, help="refuse runs whose estimate exceeds this many bytes")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("mplaw", help="density/CDF table of the limiting law")
    sp.add_argument("--c", type=float, default=None, help="ratio parameter (must be > 0)")
    sp.add_argument("--grid-points", type=int, default=512, help="grid size (default 512)")
    sp.add_argument("--x-min", type=float, default=None, help="grid start (default max(0, a - w/2), w = b - a)")
    sp.add_argument("--x-max", type=float, default=None, help="grid end (default min(1.05 b, b + w/2))")
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
        for name in DOMAINS:
            _check(name, getattr(args, name, None), command=args.command)
        return int(args.func(args) or 0)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError, ValueError, OverflowError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
