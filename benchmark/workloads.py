"""The workloads: their CLI commands, reference values, output checks,
and the direct layer calls of the traced run.

Every reference is computed before any timed section. A check returns a
list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.special import stdtrit

from spans import NullTracer
from tensormp import graphs, moments, mplaw, sequences, simulation

HERE = os.path.dirname(os.path.abspath(__file__))

P_MAX = 4  # the simulate default, checked against the exact oracle
BINS = 60  # the simulate default histogram bins
KS_BOUND = 0.08  # per-trial KS bound of the acceptance ladder, tau = 1 only
Z_ALPHA = 1e-6  # two-sided false-alarm rate of each Monte Carlo mean check
REL_TOL = 1e-12
SPECTRAL_TOL = 1e-10  # matrix-power traces vs eigenvalue power sums, two computations
ORACLE_C = 0.5
TAU4 = (0.5, 1.0, 1.5, 2.0)
TAU32 = tuple(0.5 + j / 32 for j in range(32))
LIMIT_P = 9
EXACT_P = 6
TAU1_P = 8


@dataclass(frozen=True)
class Sim:
    """One ``tensormp simulate`` configuration."""

    ident: str
    n: int
    k: int
    c: float
    dist: str
    tau_spec: str
    tau: tuple[float, ...]
    trials: int
    seed: int

    @property
    def m(self) -> int:
        return round(self.c * self.n**self.k)

    @property
    def nk(self) -> int:
        return self.n**self.k


@dataclass(frozen=True)
class Command:
    ident: str
    argv: tuple[str, ...]
    sim: Sim | None = None

    @property
    def cli_span(self) -> str:
        """Span name of the whole CLI call, e.g. ``cli.verify.graphs``."""
        if self.argv[0] == "verify":
            return f"cli.verify.{self.argv[1]}"
        return f"cli.{self.argv[0]}"


def sim_command(sim: Sim, threads: int) -> Command:
    argv = (
        "simulate", "--n", str(sim.n), "--k", str(sim.k), "--c", repr(sim.c),
        "--dist", sim.dist, "--tau", sim.tau_spec, "--trials", str(sim.trials),
        "--seed", str(sim.seed), "--threads", str(threads),
    )
    return Command(sim.ident, argv, sim)


def warmup_command(cmd: Command, threads: int) -> Command:
    """The same command with one trial per simulate config."""
    return sim_command(replace(cmd.sim, trials=1), threads) if cmd.sim else cmd


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _write_tau(path: str, values) -> str:
    with open(path, "w") as fh:
        fh.writelines(f"{v!r}\n" for v in values)
    return f"file:{path}"


# ------------------------------------------------------------ workloads

def mc_ladder(seed: int, tmp: str, threads: int) -> list[Command]:
    sizes = ((4, 16), (6, 8), (8, 2))  # (n, trials); n = 8 dominates the time
    seeds = _child_seeds(seed, len(sizes))
    out = []
    for (n, trials), s in zip(sizes, seeds):
        m = round(0.5 * n**4)
        sim = Sim(f"ladder-n{n}", n, 4, 0.5, "phase", "const:1", (1.0,) * m, trials, s)
        out.append(sim_command(sim, threads))
    return out


def mc_wide_oracle(seed: int, tmp: str, threads: int) -> list[Command]:
    return mc_wide(seed, tmp, threads) + oracle(tmp)


def mc_wide(seed: int, tmp: str, threads: int) -> list[Command]:
    n, k, c, trials = 8, 3, 2.0, 4
    m = round(c * n**k)
    s_pos, s_signed = _child_seeds(seed, 2)
    first = 1.0 if seed % 2 == 0 else -0.5  # the seed sets the phase
    other = -0.5 if first == 1.0 else 1.0
    signed = tuple(first if j % 2 == 0 else other for j in range(m))
    spec = _write_tau(os.path.join(tmp, "tau_signed.txt"), signed)
    return [
        sim_command(Sim("wide-tau1", n, k, c, "rademacher", "const:1", (1.0,) * m, trials, s_pos), threads),
        sim_command(Sim("wide-signed", n, k, c, "rademacher", spec, signed, trials, s_signed), threads),
    ]


def oracle(tmp: str) -> list[Command]:
    """Fixed-input exact and limiting commands; they ignore the seed."""
    tau4 = _write_tau(os.path.join(tmp, "tau4.txt"), TAU4)
    tau32 = _write_tau(os.path.join(tmp, "tau32.txt"), TAU32)
    c = repr(ORACLE_C)
    return [
        Command("moments-limit", ("moments", "--c", c, "--p-max", str(LIMIT_P), "--tau", tau4)),
        Command("moments-tau1", ("moments", "--c", c, "--p-max", str(TAU1_P))),
        Command("moments-exact", (
            "moments", "--c", c, "--n", "4", "--k", "3", "--m", "32",
            "--dist", "rademacher", "--tau", tau32, "--p-max", str(EXACT_P),
        )),
        *(Command(f"verify-{s}", ("verify", s)) for s in ("sequences", "graphs", "stirling", "moments")),
        Command("mplaw", ("mplaw", "--c", c)),
    ]


# ----------------------------------------------------------- references

def z_gate(trials: int) -> float:
    """Student-t quantile for the mean check: the SE has trials-1 dof."""
    return float(stdtrit(trials - 1, 1.0 - Z_ALPHA / 2))


def references(commands: list[Command]) -> dict:
    """Everything the checks compare against, computed up front."""
    refs: dict = {}
    for cmd in commands:
        sim = cmd.sim
        if sim is not None:
            rule = simulation.EntryDistribution.parse(sim.dist).mixed_moment_rule()
            tau = moments.TauModel(coefficients=sim.tau)
            refs[cmd.ident] = [
                moments.exact_mean_trace_moment(sim.n, sim.k, sim.m, p, tau, rule)
                for p in range(1, P_MAX + 1)
            ]
    if any(cmd.ident == "moments-exact" for cmd in commands):
        with open(os.path.join(HERE, "oracle_reference.json")) as fh:
            refs.update(json.load(fh))
        s1 = sum(Fraction(t) for t in TAU32)
        s2 = sum(Fraction(t) ** 2 for t in TAU32)
        nk = 4**3
        refs["exact-closed-form"] = [float(s1 / nk), float((s2 + (s1 * s1 - s2) / nk) / nk)]
    return refs


# --------------------------------------------------------------- checks

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _csv_rows(text: str) -> list[list[str]]:
    """Data rows of a CLI CSV: skips the config comment and the header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _file(files: dict[str, bytes], suffix: str) -> str:
    (name,) = [p for p in files if p.endswith(suffix)]
    return files[name].decode()


def check_simulate(sim: Sim, files: dict[str, bytes], exact: list[float]) -> list[str]:
    bad = []
    report = json.loads(_file(files, "_report.json"))
    means = [row["mean"] for row in report["moments"]]
    ses = [row["se"] for row in report["moments"]]
    want_p1 = sim.c * math.fsum(sim.tau) / sim.m
    if _rel(means[0], want_p1) > REL_TOL:
        bad.append(f"p=1 mean {means[0]!r} != c*mean(tau) {want_p1!r}")
    z = z_gate(sim.trials)
    for p in range(1, P_MAX + 1):
        err = abs(means[p - 1] - exact[p - 1])
        if err > z * ses[p - 1] + REL_TOL * abs(exact[p - 1]):
            bad.append(f"p={p} mean {means[p - 1]!r} vs exact {exact[p - 1]!r}: "
                       f"|diff| {err:.3e} > {z:.1f} SE ({ses[p - 1]:.3e})")
    ks = report["ks"]["per_trial"]
    if all(t == 1.0 for t in sim.tau) and max(ks) >= KS_BOUND:
        bad.append(f"KS {max(ks):.4f} >= {KS_BOUND}")
    rows = _csv_rows(_file(files, "_histogram.csv"))
    atom = float(rows[0][2])
    want_atom = max(0, sim.nk - sim.m) * sim.trials / (sim.nk * sim.trials)
    if atom != want_atom:
        bad.append(f"zero atom mass {atom!r} != {want_atom!r}")
    total = math.fsum(float(r[2]) for r in rows)
    if abs(total - 1.0) > 1e-12:
        bad.append(f"histogram mass sums to {total!r}")
    trial_rows = _csv_rows(_file(files, "_trial_moments.csv"))
    if len(trial_rows) != sim.trials * P_MAX:
        bad.append(f"{len(trial_rows)} trial-moment rows, want {sim.trials * P_MAX}")
    return bad


def _moment_columns(text: str) -> tuple[list[float], list[float | None]]:
    rows = _csv_rows(text)
    return [float(r[1]) for r in rows], [float(r[2]) if r[2] else None for r in rows]


def check_oracle(cmd: Command, out: str, files: dict[str, bytes], refs: dict) -> list[str]:
    bad = []
    if cmd.argv[0] == "verify":
        if "OVERALL PASS" not in out:
            bad.append("verify did not print OVERALL PASS")
        return bad
    if cmd.argv[0] == "mplaw":
        rows = [[float(v) for v in r] for r in _csv_rows(_file(files, ".csv"))]
        cdfs = [r[2] for r in rows]
        if any(b < a for a, b in zip(cdfs, cdfs[1:])):
            bad.append("mplaw cdf decreases")
        if rows[0] != [0.0, 0.0, 1.0 - ORACLE_C]:
            bad.append(f"mplaw atom row {rows[0]} != [0, 0, {1 - ORACLE_C}]")
        if abs(cdfs[-1] - 1.0) > 1e-12:
            bad.append(f"mplaw cdf ends at {cdfs[-1]!r}")
        return bad
    theory, value = _moment_columns(_file(files, ".csv"))
    if cmd.ident == "moments-tau1":
        if len(theory) != TAU1_P:
            bad.append(f"tau=1 table has {len(theory)} rows, want {TAU1_P}")
        for p, (t, v) in enumerate(zip(theory, value), start=1):
            if t != moments.mp_moment(p, ORACLE_C) or v != t:
                bad.append(f"tau=1 p={p}: theory {t!r} / closed form {v!r} != mp_moment")
        return bad
    ref = refs[cmd.ident]
    want = {"theory": theory}
    if cmd.ident == "moments-exact":
        want["exact"] = value
        for p, closed in enumerate(refs["exact-closed-form"], start=1):
            if value[p - 1] != closed:
                bad.append(f"exact p={p} {value[p - 1]!r} != closed form {closed!r}")
    for column, got in want.items():
        for p, (g, r) in enumerate(zip(got, ref[column]), start=1):
            if _rel(g, r) > REL_TOL:
                bad.append(f"{column} p={p} {g!r} != recorded {r!r}")
        if len(got) != len(ref[column]):
            bad.append(f"{column} has {len(got)} rows, want {len(ref[column])}")
    return bad


def check_command(cmd: Command, out: str, files: dict[str, bytes], refs: dict) -> list[str]:
    if cmd.sim is not None:
        return check_simulate(cmd.sim, files, refs[cmd.ident])
    return check_oracle(cmd, out, files, refs)


# ------------------------------------------ direct layer calls (traced)

def mc_untraced(commands: list[Command]) -> dict:
    """The program's own sequential pipeline: run_trials then histogram."""
    out = {}
    for cmd in commands:
        sim = cmd.sim
        dist = simulation.EntryDistribution.parse(sim.dist)
        rep = simulation.run_trials(sim.n, sim.k, sim.m, dist, sim.tau, P_MAX, sim.trials,
                                    sim.seed, c=sim.c, threads=1)
        samples = [o.sample for o in rep.outcomes]
        out[cmd.ident] = (samples, rep.ks_values, simulation.histogram_rows(samples, bins=BINS))
    return out


def mc_replay(commands: list[Command], tracer) -> dict:
    """run_trials's steps called one by one, each inside a span."""
    out = {}
    for cmd in commands:
        sim = cmd.sim
        dist = simulation.EntryDistribution.parse(sim.dist)
        tau = np.asarray(sim.tau, dtype=float)
        samples, ks_values = [], []
        for t in range(sim.trials):
            ident = f"{sim.ident}/t{t}"
            with tracer.span("simulation.sample", ident):
                vecs = simulation.sample_base_vectors(sim.n, sim.k, sim.m, dist, sim.seed, trial=t)
            with tracer.span("simulation.gram", ident):
                G = simulation.gram_matrix(vecs)
            with tracer.span("simulation.esd", ident):
                sample = simulation.esd(G, tau, sim.nk, P=0, seed=sim.seed,
                                        dims=(sim.n, sim.k, sim.m))
            with tracer.span("simulation.trace_moments", ident):
                sample.trace_moments = simulation.trace_moments(G, tau, P_MAX, sim.nk)
            with tracer.span("mplaw.ks", ident):
                ks_values.append(mplaw.ks_distance(sample, sim.c))
            samples.append(sample)
        with tracer.span("simulation.histogram", sim.ident):
            rows = simulation.histogram_rows(samples, bins=BINS)
        out[cmd.ident] = (samples, ks_values, rows)
    return out


def mc_compare(got: dict, want: dict) -> dict[str, list[str]]:
    """Replay against run_trials: eigenvalues and moments to rounding."""
    bad: dict[str, list[str]] = {}
    for ident, (samples, ks, rows) in want.items():
        g_samples, g_ks, g_rows = got[ident]
        msgs = bad.setdefault(ident, [])
        for t, (a, b) in enumerate(zip(g_samples, samples)):
            scale = max(1.0, float(np.max(np.abs(b.nonzero_eigenvalues))))
            if a.zero_multiplicity != b.zero_multiplicity or not np.allclose(
                a.nonzero_eigenvalues, b.nonzero_eigenvalues, rtol=0, atol=1e-12 * scale
            ):
                msgs.append(f"trial {t}: eigenvalues differ from run_trials")
            if not np.allclose(a.trace_moments, b.trace_moments, rtol=REL_TOL, atol=0):
                msgs.append(f"trial {t}: trace moments differ from run_trials")
            nk = a.zero_multiplicity + a.nonzero_eigenvalues.size
            spectral = [float(np.sum(a.nonzero_eigenvalues**p)) / nk for p in range(1, P_MAX + 1)]
            if not np.allclose(a.trace_moments, spectral, rtol=SPECTRAL_TOL, atol=0):
                msgs.append(f"trial {t}: matrix-power moments {a.trace_moments} != "
                            f"eigenvalue power sums {spectral}")
        if not np.allclose(g_ks, ks, rtol=0, atol=REL_TOL):
            msgs.append("KS values differ from run_trials")
        if not np.allclose(np.array(g_rows), np.array(rows), rtol=REL_TOL, atol=0):
            msgs.append("histogram rows differ from run_trials")
    return bad


def oracle_probe(tracer) -> dict:
    """The oracle's exact and limiting work, layer by layer."""
    tau4 = moments.TauModel(coefficients=TAU4)
    limit = []
    for p in range(1, LIMIT_P + 1):
        with tracer.span(f"moments.limiting.p{p}", "moments-limit"):
            limit.append(moments.limiting_moment(p, ORACLE_C, tau4))
    tau32 = moments.TauModel(coefficients=TAU32)
    rule = moments.rademacher_rule()
    exact = []
    for p in range(1, EXACT_P + 1):
        with tracer.span(f"moments.exact.p{p}", "moments-exact"):
            exact.append(moments.exact_mean_trace_moment(4, 3, 32, p, tau32, rule))
    law = mplaw.MPLaw(ORACLE_C)
    xs = np.unique(np.append(np.linspace(0.0, law.b * 1.05, 512), 0.0))
    with tracer.span("mplaw.law_table", "mplaw"):
        table = mplaw.law_table_csv(ORACLE_C, xs)
    with tracer.span("sequences.enumerate", "moments-limit"):
        seqs = sequences.enumerate_canonical(LIMIT_P)
    with tracer.span("sequences.is_crossing", "moments-limit"):
        kept = sum(1 for a in seqs if not sequences.is_crossing(a))
    seqs6 = sequences.enumerate_canonical(EXACT_P)
    with tracer.span("graphs.build_classify", "moments-exact"):
        for a in seqs6:
            for i in seqs6:
                graphs.classify(graphs.build_graph(i, a))
    with tracer.span("moments.graph_weight", "moments-exact"):
        nonzero = sum(
            1 for a in seqs6 for i in seqs6 if moments.graph_expectation_weight(i, a, rule)
        )
    return {
        "theory": limit,
        "exact": exact,
        "law_table": table,
        "limit_enumerated": len(seqs),
        "limit_kept": kept,
        "pairs": len(seqs6) ** 2,
        "pairs_nonzero": nonzero,
    }


def oracle_compare(got: dict, want: dict, refs: dict) -> dict[str, list[str]]:
    """Traced probe against untraced probe and the recorded columns."""
    bad: dict[str, list[str]] = {"moments-limit": [], "moments-exact": []}
    if got != want:
        bad["moments-limit"].append("traced probe differs from untraced probe")
    for ident, column in (("moments-limit", "theory"), ("moments-exact", "exact")):
        for p, (g, r) in enumerate(zip(got[column], refs[ident][column]), start=1):
            if _rel(g, r) > REL_TOL:
                bad[ident].append(f"probe {column} p={p} {g!r} != recorded {r!r}")
    if got["limit_kept"] != math.comb(2 * LIMIT_P, LIMIT_P) // (LIMIT_P + 1):
        bad["moments-limit"].append(f"{got['limit_kept']} non-crossing sequences, want Catalan")
    return bad


def _split(commands: list[Command]) -> tuple[list[Command], bool]:
    sims = [c for c in commands if c.sim is not None]
    return sims, len(sims) < len(commands)


def untraced(commands: list[Command]) -> dict:
    """The reference for the replay, with tracing off."""
    sims, has_oracle = _split(commands)
    out = {"sims": mc_untraced(sims)}
    if has_oracle:
        out["oracle"] = oracle_probe(NullTracer())
    return out


def replay(commands: list[Command], tracer) -> dict:
    """The lower layers called directly, each call inside a span."""
    sims, has_oracle = _split(commands)
    out = {"sims": mc_replay(sims, tracer)}
    if has_oracle:
        out["oracle"] = oracle_probe(tracer)
    return out


def compare(got: dict, want: dict, refs: dict) -> dict[str, list[str]]:
    """Failure messages per command id: the replay against the reference."""
    bad = mc_compare(got["sims"], want["sims"])
    if "oracle" in got:
        bad.update(oracle_compare(got["oracle"], want["oracle"], refs))
    return bad


WORKLOADS = {"mc-ladder": mc_ladder, "mc-wide-oracle": mc_wide_oracle}
