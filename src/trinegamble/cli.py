"""Command-line front end: it parses flags and dispatches to the package.

Subcommands
-----------
simulate     run one Monte Carlo game and emit the aggregate result
analytic     closed-form gain figures for one (theta_a, r, R) point
sweep-theta  tabulate analytic / exact / Monte Carlo gain over a theta grid
sweep-r      tabulate the honest bias floor as r shrinks at fixed k = r(R+2)
verify       run the invariant checks of trinegamble.verify and report pass/fail

Both sweeps build their points and hand them to one driver, which plays
row i on seed + i. Exit codes: 0 success, 1 validation or usage error,
2 invariant failure (including a Monte Carlo run that contradicts an
exact expectation with zero spread), 3 protocol abort (accusation
monitor trip).

The fully resolved configuration is echoed to stderr as a single
``# trinegamble <command> --key=value ...`` line that lists every flag of
the command in ``--help`` order, so any run can be reproduced by copying
that line. ``--seed`` falls back to the TRINEGAMBLE_SEED environment
variable, then to 0.

build_parser builds the parser once per process, and every main call
reuses it; parsing keeps no state on it. Each subcommand's handler is
bound when the parser is built, so a test that patches ``cli.cmd_*`` is
not seen by the shared parser: patch what the handler calls, such as
``cli.simulate``, instead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import stat
import sys

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
from .strategies import FixedStateCheat, HonestAlice, parse_alice_spec, parse_bob_spec
from .verify import run_verify_checks

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


def _echo_config(args, **resolved) -> None:
    """Echo every flag of the command, in parser order, as one line on
    stderr; resolved (keyed by dest) overrides the values the command
    worked out itself, such as the seed."""
    rendered = " ".join(f"{flag}={_cell(resolved.get(dest, getattr(args, dest)))}"
                        for flag, dest in args.flags)
    print(f"# trinegamble {args.command} {rendered}", file=sys.stderr)


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
    _echo_config(args, seed=seed)
    if not 0 <= seed < 2 ** 64:
        raise CliError(f"--seed must lie in [0, 2**64), got {seed}")
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
            write = streams[1].write
            lines = None

            def sink(transcripts, rows):
                # every call hands on the same table: render its rows once
                nonlocal lines
                if lines is None:
                    lines = np.array([transcript_line(t) + "\n" for t in transcripts],
                                     dtype=object)
                write("".join(lines[rows].tolist()))

            result = simulate(config, transcript_sink=sink)
        else:
            result = simulate(config)
        _write_rows([result.to_record()], SIM_COLUMNS, args.format, streams[0])
    return 3 if result.aborted else 0


def cmd_analytic(args) -> int:
    breakdown = gain_total(args.theta_a, args.rate_r, args.penalty_R)
    _echo_config(args)
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


def _sweep(args, seed: int, points, columns, /, **resolved) -> int:
    """Tabulate each point against the honest receiver: its analytic gain,
    the exact oracle and a Monte Carlo run, with row i played on seed + i.
    A point is (row fields, params, sender, analytic). resolved is handed
    to the echo line (positional-only parameters leave "points" free)."""
    if not 0 <= seed <= 2 ** 64 - len(points):
        raise CliError(f"--seed must lie in [0, 2**64 - {len(points)}] so that every row's seed "
                       f"(--seed + row index) is a uint64, got {seed}")
    _echo_config(args, seed=seed, **resolved)
    bob = parse_bob_spec("honest")
    # building every row's config checks --rounds and --workers before
    # --output is opened
    configs = [SimConfig(rounds=args.rounds, seed=seed + i, params=params, alice=alice, bob=bob,
                         workers=args.workers)
               for i, (_, params, alice, _) in enumerate(points)]
    with _output_streams(args.output) as (stream,):
        rows = []
        for (fields, _, _, analytic), config in zip(points, configs):
            exact = enumerate_exact(config.alice, config.params)
            result = simulate(config)
            rows.append({**fields, "analytic": analytic, "exact_oracle": exact.g_alice,
                         "mc_mean": result.mean_gain_alice, "mc_stderr": result.stderr,
                         "z": compare_stats(result, exact)})
        _write_rows(rows, columns, args.format, stream)
    return 0


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
    points = [({"parameter": theta}, params, alice,
               gain_total(theta, args.rate_r, args.penalty_R).g_total)
              for theta, alice in zip(thetas, senders)]
    theta_list = ",".join(str(t) for t in thetas) if args.theta_list else ""
    return _sweep(args, seed, points, SWEEP_THETA_COLUMNS,
                  points=len(thetas), theta_list=theta_list)


def cmd_sweep_r(args) -> int:
    seed = _resolve_seed(args.seed)
    r_values = _parse_float_list(args.r_list, "--r-list")
    games = [ProtocolParams(r=r, R=penalty_for_bias(r, args.k)) for r in r_values]
    points = [({"parameter": params.r, "penalty_R": params.R}, params, HonestAlice(), params.r)
              for params in games]
    return _sweep(args, seed, points, SWEEP_R_COLUMNS,
                  r_list=",".join(str(r) for r in r_values))


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if seed < 0:
        raise CliError(f"--seed must be nonnegative, got {seed}")
    if args.trials < 1:
        raise CliError("--trials must be at least 1")
    if args.grid_points < 2:
        raise CliError("--grid-points must be at least 2")
    _echo_config(args, seed=seed)
    reports = run_verify_checks(seed, args.trials, args.grid_points)
    ok = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        ok = ok and report.passed
        print(f"{status} {report.name}: {report.detail}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="trinegamble", description="Quantum gambling on trine states.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_seed_flag(p):
        p.add_argument("--seed", type=int, default=None, help=f"base seed (default: ${ENV_SEED} or 0)")

    def add_game_flags(p):
        p.add_argument("--rate-r", type=float, default=0.05, metavar="R01", help="checking-round rate in [0, 1)")
        p.add_argument("--penalty-R", type=float, default=398.0, metavar="RPEN", help="payment on a failed check")

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="output encoding")
        p.add_argument("--output", default="-", metavar="PATH", help="output file, - for stdout")

    sim = sub.add_parser("simulate", help="run one Monte Carlo game")
    sim.add_argument("--alice", default="honest", help="sender spec: honest | fixed:theta_a=T,claim=L | mixture:p:state:claim;... | entangled:singlet|aligned|random:N")
    sim.add_argument("--bob", default="honest", help="receiver spec: honest | random")
    sim.add_argument("--rounds", type=int, required=True, help="number of rounds")
    add_seed_flag(sim)
    add_game_flags(sim)
    sim.add_argument("--noise", type=float, default=0.0, help="depolarizing weight on the channel")
    sim.add_argument("--abort-threshold", type=_opt_float, default=None, help="accusation rate that trips the abort monitor (empty/none disables)")
    sim.add_argument("--abort-min-checks", type=int, default=1, help="checks required before the monitor may trip")
    sim.add_argument("--workers", type=int, default=1, help="contiguous round blocks, played on at most one thread per CPU from one compiled table; the result is the same for every count")
    sim.add_argument("--transcript", default="", metavar="PATH", help="stream per-round records to PATH as JSON lines")
    add_output_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analytic", help="closed-form gain at one point")
    ana.add_argument("--theta-a", type=float, required=True, help="deviation angle in [0, pi]")
    add_game_flags(ana)
    add_output_flags(ana)
    ana.set_defaults(func=cmd_analytic)

    st = sub.add_parser("sweep-theta", help="tabulate gain over a theta grid")
    add_game_flags(st)
    st.add_argument("--points", type=int, default=9, help="grid size over [0, pi]")
    st.add_argument("--theta-list", default="", help="explicit comma-separated angles (overrides --points)")
    st.add_argument("--rounds", type=int, default=20_000, help="Monte Carlo rounds per grid point")
    add_seed_flag(st)
    st.add_argument("--workers", type=int, default=1)
    add_output_flags(st)
    st.set_defaults(func=cmd_sweep_theta)

    sr = sub.add_parser("sweep-r", help="honest bias floor as r shrinks at fixed k")
    sr.add_argument("--r-list", default="0.1,0.05,0.01,0.005", help="comma-separated checking rates")
    sr.add_argument("--k", type=float, default=20.0, help="fixed product r*(R+2), must exceed 2")
    sr.add_argument("--rounds", type=int, default=20_000, help="Monte Carlo rounds per point")
    add_seed_flag(sr)
    sr.add_argument("--workers", type=int, default=1)
    add_output_flags(sr)
    sr.set_defaults(func=cmd_sweep_r)

    ver = sub.add_parser("verify", help="run the internal invariant checks")
    add_seed_flag(ver)
    ver.add_argument("--trials", type=int, default=100, help="random cases per randomized check")
    ver.add_argument("--grid-points", type=int, default=50, help="theta grid size for the closed-form check")
    ver.set_defaults(func=cmd_verify)

    # the echo line lists every flag of the command in this order
    for command in sub.choices.values():
        command.set_defaults(flags=tuple((action.option_strings[0], action.dest)
                                         for action in command._actions
                                         if action.option_strings and action.dest != "help"))
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
