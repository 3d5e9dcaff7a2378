"""Command-line front end.

Subcommands
-----------
simulate     run one Monte Carlo game and emit the aggregate result
analytic     closed-form gain figures for one (theta_a, r, R) point
sweep-theta  tabulate analytic / exact / Monte Carlo gain over a theta grid
sweep-r      tabulate the honest bias floor as r shrinks at fixed k = r(R+2)
verify       run the internal invariant checks and report pass/fail

Exit codes: 0 success, 1 validation or usage error, 2 invariant failure
(including a Monte Carlo run that contradicts an exact expectation with
zero spread), 3 protocol abort (accusation monitor trip).

The fully resolved configuration is echoed to stderr as a single
``# trinegamble <command> --key=value ...`` line so any run can be
reproduced by copying that line. ``--seed`` falls back to the
TRINEGAMBLE_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .analytics import gain_total, penalty_for_bias
from .montecarlo import (
    DeterministicDivergence,
    SimConfig,
    compare_stats,
    enumerate_exact,
    simulate,
)
from .protocol import ProtocolParams, transcript_line
from .qubit import (
    PureState,
    TwoQubitState,
    bloch_from_state,
    born_probabilities,
    local_measure_branches,
    optimal_povm,
    partial_trace,
    remote_povm_branches,
)
from .strategies import (
    FixedStateCheat,
    HonestAlice,
    parse_alice_spec,
    parse_bob_spec,
    posterior_unmeasured,
)

ENV_SEED = "TRINEGAMBLE_SEED"

SIM_COLUMNS = (
    "rounds",
    "mean_gain_alice",
    "mean_gain_bob",
    "stderr",
    "win_count",
    "lose_count",
    "check_count",
    "accuse_count",
    "aborted",
)
SWEEP_THETA_COLUMNS = ("parameter", "analytic", "exact_oracle", "mc_mean", "mc_stderr", "z")
SWEEP_R_COLUMNS = ("parameter", "penalty_R", "analytic", "exact_oracle", "mc_mean", "mc_stderr", "z")


class CliError(ValueError):
    """Bad flags or bad flag values. Maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on usage errors; route them through the
    # normal validation path instead so every bad input exits 1.
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@contextlib.contextmanager
def _output_streams(*paths: str):
    """The streams the paths name ("-" is standard output), every one opened
    before any round is played and before any is truncated, so that a path
    that cannot be written fails before the work and leaves what the other
    files hold."""
    with contextlib.ExitStack() as stack:
        streams = []
        for path in paths:
            if path == "-":
                streams.append(sys.stdout)
            else:
                # append mode keeps what the file holds until every path is open
                streams.append(stack.enter_context(
                    open(path, "a", encoding="utf-8", newline="")))
        for stream in streams:
            # as opening with "w" would: a pipe or a device is not truncated
            if stream is not sys.stdout and stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
                stream.truncate(0)
        yield streams


def _write_rows(rows, columns, fmt: str, stream) -> None:
    # str(float) is locale-independent in Python, so the CSV never grows
    # decimal commas regardless of the host locale.
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
    else:
        for row in rows:
            stream.write(json.dumps({c: row[c] for c in columns}) + "\n")


def _echo_config(command: str, pairs) -> None:
    rendered = " ".join(f"--{key}={_cell(value)}" for key, value in pairs)
    print(f"# trinegamble {command} {rendered}", file=sys.stderr)


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _opt_float(text: str):
    # argparse type for floats whose default is "disabled"; the effective
    # config line echoes the disabled state as an empty value, which must
    # parse back to None so the line stays re-runnable
    if text.strip().lower() in ("", "none"):
        return None
    return float(text)


def _parse_float_list(raw: str, flag: str):
    try:
        values = [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise CliError(f"{flag} expects comma-separated numbers, got {raw!r}") from None
    if not values:
        raise CliError(f"{flag} is empty")
    return values


# ---------------------------------------------------------------------------
# verify: invariant checks


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    detail: str


def _random_pair_state(rng) -> TwoQubitState:
    raw = rng.standard_normal(8)
    return TwoQubitState.from_unnormalized(
        complex(raw[0], raw[1]),
        complex(raw[2], raw[3]),
        complex(raw[4], raw[5]),
        complex(raw[6], raw[7]),
    )


def _random_basis(rng):
    raw = rng.standard_normal(4)
    u = PureState.from_unnormalized(complex(raw[0], raw[1]), complex(raw[2], raw[3]))
    return (u, u.orthogonal())


def check_povm_completeness(elements=None) -> CheckReport:
    """Sum of the measurement elements must be the identity."""
    if elements is None:
        elements = optimal_povm().elements
    total = np.zeros((2, 2), dtype=complex)
    for e in elements:
        total = total + np.asarray(e, dtype=complex)
    dev = float(np.max(np.abs(total - np.eye(2))))
    return CheckReport("povm_completeness", dev <= 1e-9, f"max |sum - I| = {dev:.3e}")


def check_povm_positivity(elements=None) -> CheckReport:
    """Every measurement element must be positive semidefinite."""
    if elements is None:
        elements = optimal_povm().elements
    low = min(float(np.linalg.eigvalsh(np.asarray(e, dtype=complex)).min()) for e in elements)
    return CheckReport("povm_positivity", low >= -1e-9, f"min eigenvalue = {low:.3e}")


def check_steering_identity(rng, trials: int = 100) -> CheckReport:
    """Post-measurement ensemble on the sent qubit must average to its
    reduced state, for random shared states and random kept-side bases."""
    worst = 0.0
    for _ in range(trials):
        psi = _random_pair_state(rng)
        basis = _random_basis(rng)
        target = partial_trace(psi, keep=1).bloch()
        x = y = z = 0.0
        for p, branch in local_measure_branches(psi, basis):
            if branch is None:
                continue
            b = bloch_from_state(branch)
            x += p * b.x
            y += p * b.y
            z += p * b.z
        dev = max(abs(x - target.x), abs(y - target.y), abs(z - target.z))
        worst = max(worst, dev)
    return CheckReport("steering_identity", worst <= 1e-9, f"max component deviation = {worst:.3e}")


def check_order_invariance(rng, trials: int = 100) -> CheckReport:
    """Joint outcome distribution of one measurement per side must not
    depend on which side measures first."""
    povm = optimal_povm()
    worst = 0.0
    for _ in range(trials):
        psi = _random_pair_state(rng)
        basis = _random_basis(rng)
        keeper_first = []
        for p, branch in local_measure_branches(psi, basis):
            if branch is None:
                keeper_first.append((0.0, 0.0, 0.0))
            else:
                keeper_first.append(tuple(p * q for q in born_probabilities(branch, povm)))
        sender_first = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        for k, (p, kept) in enumerate(remote_povm_branches(psi, povm)):
            if kept is None:
                continue
            for j in range(2):
                sender_first[k][j] = p * basis[j].fidelity(kept)
        dev = max(
            abs(keeper_first[j][k] - sender_first[k][j]) for j in range(2) for k in range(3)
        )
        worst = max(worst, dev)
    return CheckReport("order_invariance", worst <= 1e-9, f"max joint probability gap = {worst:.3e}")


def check_gain_closed_forms(grid_points: int = 50) -> CheckReport:
    """Closed-form per-round gain must match exhaustive branch enumeration
    of the fixed-state sender across a theta grid and two (r, R) settings."""
    worst = 0.0
    for r, R in ((0.05, 398.0), (0.01, 1998.0)):
        params = ProtocolParams(r=r, R=R)
        for theta in np.linspace(0.0, math.pi, grid_points):
            theta = float(theta)
            exact = enumerate_exact(FixedStateCheat.from_angle(theta, "a"), params).g_alice
            closed = gain_total(theta, r, R).g_total
            worst = max(worst, abs(exact - closed))
    return CheckReport("gain_closed_forms", worst <= 1e-12, f"max |closed - exact| = {worst:.3e}")


def check_posterior_bound() -> CheckReport:
    """Receiver's posterior on 'unmeasured' never drops below r/3."""
    worst = float("inf")
    for r in np.linspace(0.01, 0.99, 99):
        r = float(r)
        for matches in (True, False):
            worst = min(worst, posterior_unmeasured(r, matches) - r / 3.0)
    return CheckReport("posterior_floor", worst >= -1e-15, f"min (posterior - r/3) = {worst:.3e}")


def run_verify_checks(seed: int, trials: int, grid_points: int):
    rng = np.random.default_rng(seed)
    return [
        check_povm_completeness(),
        check_povm_positivity(),
        check_steering_identity(rng, trials),
        check_order_invariance(rng, trials),
        check_gain_closed_forms(grid_points),
        check_posterior_bound(),
    ]


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    alice = parse_alice_spec(args.alice)
    bob = parse_bob_spec(args.bob)
    params = ProtocolParams(
        r=args.rate_r,
        R=args.penalty_R,
        noise_lambda=args.noise,
        abort_threshold=args.abort_threshold,
        abort_min_checks=args.abort_min_checks,
    )
    _echo_config(
        "simulate",
        [
            ("alice", args.alice),
            ("bob", args.bob),
            ("rounds", args.rounds),
            ("seed", seed),
            ("rate-r", args.rate_r),
            ("penalty-R", args.penalty_R),
            ("noise", args.noise),
            ("abort-threshold", args.abort_threshold),
            ("abort-min-checks", args.abort_min_checks),
            ("workers", args.workers),
            ("transcript", args.transcript),
            ("format", args.format),
            ("output", args.output),
        ],
    )
    config = SimConfig(
        rounds=args.rounds, seed=seed, params=params, alice=alice, bob=bob, workers=args.workers
    )
    if args.transcript == "-":
        raise CliError("--transcript needs a file path; standard output carries the result")
    if (args.transcript and args.output != "-"
            and os.path.realpath(args.transcript) == os.path.realpath(args.output)):
        raise CliError("--transcript and --output name the same file")
    paths = (args.output, args.transcript) if args.transcript else (args.output,)
    with _output_streams(*paths) as streams:
        if args.transcript:
            sink_file = streams[1]
            # both engines hand out one prebuilt transcript object per
            # leaf: render each object's line once, keyed on its id (the
            # entry holds the object, so the id cannot be reused)
            lines = {}

            def sink(t):
                entry = lines.get(id(t))
                if entry is None:
                    entry = lines[id(t)] = (t, transcript_line(t) + "\n")
                sink_file.write(entry[1])

            result = simulate(config, transcript_sink=sink)
        else:
            result = simulate(config)
        _write_rows([result.to_record()], SIM_COLUMNS, args.format, streams[0])
    return 3 if result.aborted else 0


def cmd_analytic(args) -> int:
    breakdown = gain_total(args.theta_a, args.rate_r, args.penalty_R)
    _echo_config(
        "analytic",
        [
            ("theta-a", args.theta_a),
            ("rate-r", args.rate_r),
            ("penalty-R", args.penalty_R),
            ("format", args.format),
            ("output", args.output),
        ],
    )
    row = {
        "theta_a": args.theta_a,
        "rate_r": args.rate_r,
        "penalty_R": args.penalty_R,
        "gain_normal": breakdown.g_normal,
        "gain_checking": breakdown.g_checking,
        "gain_total": breakdown.g_total,
    }
    with _output_streams(args.output) as (stream,):
        _write_rows([row], tuple(row.keys()), args.format, stream)
    return 0


def _sweep_config(args, seed: int, params, alice) -> SimConfig:
    return SimConfig(rounds=args.rounds, seed=seed, params=params, alice=alice,
                     bob=parse_bob_spec("honest"), workers=args.workers)


def _check_sweep_seed(seed: int, rows: int) -> None:
    # row i of a sweep plays seed + i, so the last row must still be a uint64
    if not 0 <= seed <= 2 ** 64 - rows:
        raise CliError(f"--seed must lie in [0, 2**64 - {rows}] so that every row's seed "
                       f"(--seed + row index) is a uint64, got {seed}")


def cmd_sweep_theta(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.theta_list:
        thetas = _parse_float_list(args.theta_list, "--theta-list")
    else:
        if args.points < 2:
            raise CliError("--points must be at least 2")
        thetas = [float(t) for t in np.linspace(0.0, math.pi, args.points)]
    senders = [FixedStateCheat.from_angle(theta, "a") for theta in thetas]
    params = ProtocolParams(r=args.rate_r, R=args.penalty_R)
    _check_sweep_seed(seed, len(thetas))
    _echo_config(
        "sweep-theta",
        [
            ("rate-r", args.rate_r),
            ("penalty-R", args.penalty_R),
            ("points", len(thetas)),
            ("theta-list", ",".join(str(t) for t in thetas) if args.theta_list else ""),
            ("rounds", args.rounds),
            ("seed", seed),
            ("workers", args.workers),
            ("format", args.format),
            ("output", args.output),
        ],
    )
    # row i plays seed + i; building every row's config checks --rounds and
    # --workers before --output is opened
    configs = [_sweep_config(args, seed + i, params, alice) for i, alice in enumerate(senders)]
    with _output_streams(args.output) as (stream,):
        rows = []
        for theta, config in zip(thetas, configs):
            exact = enumerate_exact(config.alice, params)
            closed = gain_total(theta, args.rate_r, args.penalty_R).g_total
            result = simulate(config)
            rows.append(
                {
                    "parameter": theta,
                    "analytic": closed,
                    "exact_oracle": exact.g_alice,
                    "mc_mean": result.mean_gain_alice,
                    "mc_stderr": result.stderr,
                    "z": compare_stats(result, exact),
                }
            )
        _write_rows(rows, SWEEP_THETA_COLUMNS, args.format, stream)
    return 0


def cmd_sweep_r(args) -> int:
    seed = _resolve_seed(args.seed)
    r_values = _parse_float_list(args.r_list, "--r-list")
    games = [ProtocolParams(r=r, R=penalty_for_bias(r, args.k)) for r in r_values]
    _check_sweep_seed(seed, len(games))
    _echo_config(
        "sweep-r",
        [
            ("r-list", ",".join(str(r) for r in r_values)),
            ("k", args.k),
            ("rounds", args.rounds),
            ("seed", seed),
            ("workers", args.workers),
            ("format", args.format),
            ("output", args.output),
        ],
    )
    configs = [_sweep_config(args, seed + i, params, HonestAlice())
               for i, params in enumerate(games)]
    with _output_streams(args.output) as (stream,):
        rows = []
        for config in configs:
            params = config.params
            exact = enumerate_exact(config.alice, params)
            result = simulate(config)
            rows.append(
                {
                    "parameter": params.r,
                    "penalty_R": params.R,
                    "analytic": params.r,
                    "exact_oracle": exact.g_alice,
                    "mc_mean": result.mean_gain_alice,
                    "mc_stderr": result.stderr,
                    "z": compare_stats(result, exact),
                }
            )
        _write_rows(rows, SWEEP_R_COLUMNS, args.format, stream)
    return 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if seed < 0:
        raise CliError(f"--seed must be nonnegative, got {seed}")
    if args.trials < 1:
        raise CliError("--trials must be at least 1")
    if args.grid_points < 2:
        raise CliError("--grid-points must be at least 2")
    _echo_config(
        "verify",
        [("seed", seed), ("trials", args.trials), ("grid-points", args.grid_points)],
    )
    reports = run_verify_checks(seed, args.trials, args.grid_points)
    ok = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        ok = ok and report.passed
        print(f"{status} {report.name}: {report.detail}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="trinegamble", description="Quantum gambling on trine states.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="output encoding")
        p.add_argument("--output", default="-", metavar="PATH", help="output file, - for stdout")

    def add_game_flags(p):
        p.add_argument("--rate-r", type=float, default=0.05, metavar="R01", help="checking-round rate in [0, 1)")
        p.add_argument("--penalty-R", type=float, default=398.0, metavar="RPEN", help="payment on a failed check")

    sim = sub.add_parser("simulate", help="run one Monte Carlo game")
    sim.add_argument("--alice", default="honest", help="sender spec: honest | fixed:theta_a=T,claim=L | mixture:p:state:claim;... | entangled:singlet|aligned|random:N")
    sim.add_argument("--bob", default="honest", help="receiver spec: honest | random")
    sim.add_argument("--rounds", type=int, required=True, help="number of rounds")
    sim.add_argument("--seed", type=int, default=None, help=f"base seed (default: ${ENV_SEED} or 0)")
    sim.add_argument("--workers", type=int, default=1, help="contiguous round blocks, summed in order and run on at most as many processes as the machine has CPUs")
    sim.add_argument("--noise", type=float, default=0.0, help="depolarizing weight on the channel")
    sim.add_argument("--abort-threshold", type=_opt_float, default=None, help="accusation rate that trips the abort monitor (empty/none disables)")
    sim.add_argument("--abort-min-checks", type=int, default=1, help="checks required before the monitor may trip")
    sim.add_argument("--transcript", default="", metavar="PATH", help="stream per-round records to PATH as JSON lines")
    add_game_flags(sim)
    add_output_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analytic", help="closed-form gain at one point")
    ana.add_argument("--theta-a", type=float, required=True, help="deviation angle in [0, pi]")
    add_game_flags(ana)
    add_output_flags(ana)
    ana.set_defaults(func=cmd_analytic)

    st = sub.add_parser("sweep-theta", help="tabulate gain over a theta grid")
    st.add_argument("--points", type=int, default=9, help="grid size over [0, pi]")
    st.add_argument("--theta-list", default="", help="explicit comma-separated angles (overrides --points)")
    st.add_argument("--rounds", type=int, default=20_000, help="Monte Carlo rounds per grid point")
    st.add_argument("--seed", type=int, default=None, help=f"base seed (default: ${ENV_SEED} or 0)")
    st.add_argument("--workers", type=int, default=1)
    add_game_flags(st)
    add_output_flags(st)
    st.set_defaults(func=cmd_sweep_theta)

    sr = sub.add_parser("sweep-r", help="honest bias floor as r shrinks at fixed k")
    sr.add_argument("--r-list", default="0.1,0.05,0.01,0.005", help="comma-separated checking rates")
    sr.add_argument("--k", type=float, default=20.0, help="fixed product r*(R+2), must exceed 2")
    sr.add_argument("--rounds", type=int, default=20_000, help="Monte Carlo rounds per point")
    sr.add_argument("--seed", type=int, default=None, help=f"base seed (default: ${ENV_SEED} or 0)")
    sr.add_argument("--workers", type=int, default=1)
    add_output_flags(sr)
    sr.set_defaults(func=cmd_sweep_r)

    ver = sub.add_parser("verify", help="run the internal invariant checks")
    ver.add_argument("--seed", type=int, default=None, help=f"base seed (default: ${ENV_SEED} or 0)")
    ver.add_argument("--trials", type=int, default=100, help="random cases per randomized check")
    ver.add_argument("--grid-points", type=int, default=50, help="theta grid size for the closed-form check")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DeterministicDivergence as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
