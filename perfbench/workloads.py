"""The benchmark's workloads: inputs made from a seed, the calls into the
program, and the check each call's output must pass.

A workload is built once per process from its seed. ``ops(k)`` lists the
calls of pass k; passes repeat the same calls with program seeds shifted
by k, so every pass attempts the same operations and fails the same ones.
Each op's ``check`` returns the number of game rounds the call executed and
raises ``Mismatch`` when the output contradicts the reference or a rule of
the protocol.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
from typing import Callable, NamedTuple

import numpy as np

import reference as ref

MAIN = (0.05, 398.0)  # (r, R): the package's showcase point, r(R+2) = 20
SIGMAS = 5.0  # statistical checks allow this many reported standard errors
EXACT_TOL = 1e-12
WARMUP_ROUNDS = 1_000


class Mismatch(Exception):
    """A call returned output that contradicts the reference."""


class OpFailed(Exception):
    """The program refused a call or exited with an unexpected code."""


class Op(NamedTuple):
    name: str
    call: Callable[[], object]
    check: Callable[[object], int]


def _close(what: str, got: float, want: float, tol: float = EXACT_TOL) -> None:
    if not abs(got - want) <= tol:
        raise Mismatch(f"{what}: got {got!r}, reference {want!r} (tolerance {tol:g})")


def _within_se(what: str, mean: float, stderr: float, want: float) -> None:
    if not abs(mean - want) <= SIGMAS * stderr:
        raise Mismatch(f"{what}: mean {mean!r} is more than {SIGMAS:g} x stderr "
                       f"{stderr!r} from the reference {want!r}")


def _equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _seeds(rng: random.Random, n: int) -> list:
    return [rng.randrange(1 << 32) for _ in range(n)]


class _Program:
    """The package's modules, looked up at call time so that tracing
    wrappers installed after set-up are the ones called."""

    def __init__(self):
        self.pkg = importlib.import_module("trinegamble")
        self.cli = importlib.import_module("trinegamble.cli")
        self.mc = importlib.import_module("trinegamble.montecarlo")

    def main(self, argv, expect=(0,)):
        """cli.main in-process; returns (exit code, stdout text)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code not in expect:
            raise OpFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")
        return code, out.getvalue()


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _sim_record(text: str) -> dict:
    rows = _rows(text)
    _equal("simulate rows", len(rows), 1)
    row = rows[0]
    rec = {k: float(row[k]) for k in ("mean_gain_alice", "mean_gain_bob", "stderr")}
    for k in ("rounds", "win_count", "lose_count", "check_count", "accuse_count"):
        rec[k] = int(row[k])
    rec["aborted"] = {"true": True, "false": False}[row["aborted"]]
    return rec


def _check_result(what, res, rounds, want, truthful=False, statistical=True) -> None:
    """Rules every simulation result obeys, whatever the sender."""
    _equal(f"{what} rounds", res["rounds"], rounds)
    _equal(f"{what} wins + losses", res["win_count"] + res["lose_count"], res["rounds"])
    _equal(f"{what} receiver mean", res["mean_gain_bob"], -res["mean_gain_alice"])
    if not 0 <= res["accuse_count"] <= res["check_count"] <= res["rounds"]:
        raise Mismatch(f"{what}: inconsistent counts {res!r}")
    if truthful:
        _equal(f"{what} accusations of a truthful sender", res["accuse_count"], 0)
    if statistical:
        _within_se(f"{what} mean gain", res["mean_gain_alice"], res["stderr"], want)


class Workload:
    """Inputs built once per process; subclasses define warm_up and ops."""

    WORKERS = 0  # worker processes the program starts besides this one

    def pre_check(self) -> list:
        """Checks made once before the timed loop; returns mismatch messages."""
        return []

    def close(self) -> None:
        """Remove the workload's temporary files."""


# ---------------------------------------------------------------------------


class SeparableSweep(Workload):
    """cli.main in-process: sweep-theta, sweep-r and two mixture simulations."""

    THETA_POINTS = 4
    THETA_ROUNDS = 25_000
    R_POINTS = 3
    R_ROUNDS = 25_000
    SIM_ROUNDS = 50_000
    K = 20.0  # sweep-r holds r(R+2) at this product

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.prog = _Program()
        self.r = rng.uniform(0.02, 0.2)
        self.R = rng.uniform(5.0, 40.0) / self.r - 2.0
        self.thetas = sorted(rng.uniform(0.0, math.pi) for _ in range(self.THETA_POINTS))
        self.r_list = [rng.uniform(0.01, 0.2) for _ in range(self.R_POINTS)]
        w = [rng.uniform(0.1, 1.0) for _ in range(3)]
        w = [x / sum(w) for x in w]
        # the last weight closes the sum exactly as the parser reads it
        self.truthful = [(w[0], "a", "a"), (w[1], "b", "b"), (1.0 - w[0] - w[1], "c", "c")]
        p = rng.uniform(0.2, 0.8)
        self.cheat = [(p, rng.uniform(-math.pi, math.pi), rng.choice(ref.LABELS)),
                      (1.0 - p, rng.uniform(-math.pi, math.pi), rng.choice(ref.LABELS))]
        self.seeds = _seeds(rng, 4)

    @staticmethod
    def _mixture_spec(components) -> str:
        return "mixture:" + ";".join(f"{p!r}:{s if isinstance(s, str) else repr(s)}:{c}"
                                     for p, s, c in components)

    @staticmethod
    def _mixture_ref(components):
        return [(p, ref.TRINE[s] if isinstance(s, str) else ref.in_plane(s), c)
                for p, s, c in components]

    def _theta_argv(self, seed, rounds):
        return ["sweep-theta", "--theta-list", ",".join(repr(t) for t in self.thetas),
                "--rounds", str(rounds), "--seed", str(seed),
                "--rate-r", repr(self.r), "--penalty-R", repr(self.R)]

    def warm_up(self):
        self.prog.main(self._theta_argv(self.seeds[0], WARMUP_ROUNDS))

    def ops(self, k: int) -> list:
        s = [x + k for x in self.seeds]
        theta_argv = self._theta_argv(s[0], self.THETA_ROUNDS)
        r_argv = ["sweep-r", "--r-list", ",".join(repr(r) for r in self.r_list),
                  "--k", repr(self.K), "--rounds", str(self.R_ROUNDS), "--seed", str(s[1])]
        out = []
        out.append(Op("sweep-theta", lambda: self.prog.main(theta_argv)[1], self._check_theta))
        out.append(Op("sweep-r", lambda: self.prog.main(r_argv)[1], self._check_r))
        for name, comps, seed in (("simulate-truthful-mixture", self.truthful, s[2]),
                                  ("simulate-cheating-mixture", self.cheat, s[3])):
            argv = ["simulate", "--alice", self._mixture_spec(comps),
                    "--rounds", str(self.SIM_ROUNDS), "--seed", str(seed),
                    "--rate-r", repr(MAIN[0]), "--penalty-R", repr(MAIN[1])]
            out.append(Op(name, lambda argv=argv: self.prog.main(argv)[1],
                          lambda text, name=name, comps=comps: self._check_mixture(name, comps, text)))
        return out

    def _check_theta(self, text: str) -> int:
        rows = _rows(text)
        _equal("sweep-theta rows", len(rows), len(self.thetas))
        for theta, row in zip(self.thetas, rows):
            want = ref.fixed_gain(theta, "a", self.r, self.R)
            _equal("sweep-theta parameter", float(row["parameter"]), theta)
            _close(f"sweep-theta analytic at {theta!r}", float(row["analytic"]), want)
            _close(f"sweep-theta exact_oracle at {theta!r}", float(row["exact_oracle"]), want)
            self._check_mc("sweep-theta", row, want)
        return len(rows) * self.THETA_ROUNDS

    def _check_r(self, text: str) -> int:
        rows = _rows(text)
        _equal("sweep-r rows", len(rows), len(self.r_list))
        for r, row in zip(self.r_list, rows):
            R = self.K / r - 2.0
            want = ref.honest_gain(r, R)
            _equal("sweep-r parameter", float(row["parameter"]), r)
            _close(f"sweep-r penalty_R at {r!r}", float(row["penalty_R"]), R, EXACT_TOL * R)
            _close(f"sweep-r analytic at {r!r}", float(row["analytic"]), want)
            _close(f"sweep-r exact_oracle at {r!r}", float(row["exact_oracle"]), want)
            self._check_mc("sweep-r", row, want)
        return len(rows) * self.R_ROUNDS

    @staticmethod
    def _check_mc(what: str, row: dict, want: float) -> None:
        mean, se, z = float(row["mc_mean"]), float(row["mc_stderr"]), float(row["z"])
        _within_se(what, mean, se, want)
        exact = float(row["exact_oracle"])
        _close(f"{what} z", z, (mean - exact) / se, 1e-9 * max(1.0, abs(z)))

    def _check_mixture(self, name: str, comps, text: str) -> int:
        res = _sim_record(text)
        want = ref.mixture_gain(self._mixture_ref(comps), *MAIN)
        _equal(f"{name} aborted", res["aborted"], False)
        _check_result(name, res, self.SIM_ROUNDS, want,
                      truthful=all(isinstance(s, str) and s == c for _, s, c in comps))
        return res["rounds"]


# ---------------------------------------------------------------------------


class EntangledScan(Workload):
    """Library simulate for entangled senders at (0.05, 398), plus one
    enumerate_exact call per sender (rejected for entangled senders today)."""

    RANDOM_POLICIES = 5
    ROUNDS = 25_000

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.prog = _Program()
        pkg = self.prog.pkg
        senders = [(f"random:{s}", pkg.random_entangled_policy(np.random.default_rng(s)))
                   for s in _seeds(rng, self.RANDOM_POLICIES)]
        senders.append(("aligned", pkg.aligned_pair()))
        senders.append(("singlet", pkg.singlet_mirror()))
        senders.append(("attack", self._attack(pkg)))
        self.senders = senders
        self.params = pkg.ProtocolParams(r=MAIN[0], R=MAIN[1])
        self.bob = pkg.BobStrategy.honest_optimal()
        self.seeds = _seeds(rng, len(senders))
        self._expected = {}

    @staticmethod
    def _attack(pkg):
        strategies = importlib.import_module("trinegamble.strategies")
        angles, claims = ref.attack_policy()
        basis = {}
        for g, angle in angles.items():
            u = strategies.in_plane_state(angle)
            basis[g] = (u, u.orthogonal())
        return pkg.EntangledAlice(pkg.TwoQubitState.phi_plus(), basis, claims)

    def _config(self, alice, rounds, seed):
        return self.prog.pkg.SimConfig(rounds=rounds, seed=seed, params=self.params,
                                       alice=alice, bob=self.bob)

    def expected(self, name: str) -> float:
        if name not in self._expected:
            alice = dict(self.senders)[name]
            self._expected[name] = ref.entangled_gain(
                alice.psi, alice.basis_policy, alice.claim_policy, *MAIN)
        return self._expected[name]

    def warm_up(self):
        self.prog.mc.simulate(self._config(self.senders[0][1], WARMUP_ROUNDS, self.seeds[0]))

    def ops(self, k: int) -> list:
        out = []
        for (name, alice), seed in zip(self.senders, self.seeds):
            cfg = self._config(alice, self.ROUNDS, seed + k)
            out.append(Op(f"simulate-{name}", lambda cfg=cfg: self.prog.mc.simulate(cfg),
                          lambda res, name=name: self._check_sim(name, res)))
            out.append(Op(f"enumerate_exact-{name}",
                          lambda alice=alice: self.prog.mc.enumerate_exact(alice, self.params),
                          lambda exact, name=name: self._check_exact(name, exact)))
        return out

    def _check_sim(self, name: str, result) -> int:
        res = result.to_record()
        _equal(f"{name} aborted", res["aborted"], False)
        _check_result(name, res, self.ROUNDS, self.expected(name))
        return res["rounds"]

    def _check_exact(self, name: str, exact) -> int:
        _close(f"{name} enumerate_exact", exact.g_alice, self.expected(name))
        return 0


# ---------------------------------------------------------------------------


class NoisyMonitoredTranscript(Workload):
    """cli.main simulate with channel noise, the abort monitor and a
    transcript file; one sender per pass trips the monitor (exit 3)."""

    ROUNDS = 20_000
    THRESHOLD = 0.3
    MIN_CHECKS = 100

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.prog = _Program()
        self.noise = rng.uniform(0.05, 0.15)
        fixed_theta, fixed_claim = rng.uniform(0.1, 0.3), rng.choice(ref.LABELS)
        cheat_theta, cheat_claim = rng.uniform(2.0, math.pi), rng.choice(ref.LABELS)
        # below-threshold senders fail checks at most at rate 0.094, far
        # under the threshold; the cheat fails at least at rate 0.68
        self.senders = [
            ("honest", "honest", ref.honest_gain(*MAIN, self.noise), False),
            ("fixed", f"fixed:theta_a={fixed_theta!r},claim={fixed_claim}",
             ref.fixed_gain(fixed_theta, fixed_claim, *MAIN, self.noise), False),
            ("cheat", f"fixed:theta_a={cheat_theta!r},claim={cheat_claim}", None, True),
        ]
        self.seeds = _seeds(rng, len(self.senders))
        self.path = os.path.join(workdir, f"transcript-{os.getpid()}.jsonl")

    def _argv(self, spec, rounds, seed):
        return ["simulate", "--alice", spec, "--rounds", str(rounds), "--seed", str(seed),
                "--noise", repr(self.noise), "--abort-threshold", repr(self.THRESHOLD),
                "--abort-min-checks", str(self.MIN_CHECKS), "--transcript", self.path,
                "--rate-r", repr(MAIN[0]), "--penalty-R", repr(MAIN[1])]

    def warm_up(self):
        self.prog.main(self._argv(self.senders[0][1], WARMUP_ROUNDS, self.seeds[0]))

    def ops(self, k: int) -> list:
        out = []
        for (name, spec, want, trips), seed in zip(self.senders, self.seeds):
            argv = self._argv(spec, self.ROUNDS, seed + k)
            expect = (3,) if trips else (0,)
            out.append(Op(f"simulate-{name}",
                          lambda argv=argv, expect=expect: self.prog.main(argv, expect)[1],
                          lambda text, name=name, want=want, trips=trips:
                              self._check(name, text, want, trips)))
        return out

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)

    def _check(self, name: str, text: str, want, trips: bool) -> int:
        res = _sim_record(text)
        _equal(f"{name} aborted", res["aborted"], trips)
        if trips:
            _check_result(name, res, res["rounds"], None, statistical=False)
        else:
            _check_result(name, res, self.ROUNDS, want)
        self._check_transcript(name, res)
        return res["rounds"]

    def _check_transcript(self, name: str, res: dict) -> None:
        R = MAIN[1]
        with open(self.path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        _equal(f"{name} transcript lines", len(lines), res["rounds"])
        wins = checks = accs = 0
        total = 0.0
        trip = None
        for i, line in enumerate(lines, 1):
            t = json.loads(line)
            won = t["result"] == "bob_won"
            if won != (t["guess"] == t["claimed"]):
                raise Mismatch(f"{name} round {i}: result contradicts guess and claim: {line}")
            checking = t["kind"] == "checking"
            if checking != (t["check"] is not None):
                raise Mismatch(f"{name} round {i}: check outside a checking round: {line}")
            if t["check"] == "accuse":
                deltas = (-R, R)
            else:
                deltas = (-1.0, 1.0) if won else (2.0, -2.0)
            if (t["alice_delta"], t["bob_delta"]) != deltas:
                raise Mismatch(f"{name} round {i}: deltas break the payout rule: {line}")
            wins += won
            total += t["alice_delta"]
            if checking:
                checks += 1
                accs += t["check"] == "accuse"
                if (trip is None and checks >= self.MIN_CHECKS
                        and accs / checks > self.THRESHOLD):
                    trip = i
        _equal(f"{name} transcript wins", wins, res["win_count"])
        _equal(f"{name} transcript checks", checks, res["check_count"])
        _equal(f"{name} transcript accusations", accs, res["accuse_count"])
        mean = total / len(lines)
        _close(f"{name} transcript mean", mean, res["mean_gain_alice"],
               1e-9 * max(1.0, abs(mean)))
        _equal(f"{name} monitor trip round", trip, len(lines) if res["aborted"] else None)


# ---------------------------------------------------------------------------


class SplitWorkers(Workload):
    """Library simulate of separable senders with workers=2."""

    WORKERS = 2
    ROUNDS = 200_000
    PREFIX_ROUNDS = 4_000

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.prog = _Program()
        pkg = self.prog.pkg
        theta, claim = rng.uniform(0.0, math.pi), rng.choice(ref.LABELS)
        p, angle, mclaim = rng.uniform(0.2, 0.8), rng.uniform(-math.pi, math.pi), rng.choice(ref.LABELS)
        spec = f"mixture:{p!r}:{mclaim}:{mclaim};{1.0 - p!r}:{angle!r}:{mclaim}"
        self.senders = [
            ("honest", pkg.HonestAlice(), ref.honest_gain(*MAIN), True),
            ("fixed", pkg.FixedStateCheat.from_angle(theta, claim),
             ref.fixed_gain(theta, claim, *MAIN), False),
            ("mixture", pkg.parse_alice_spec(spec),
             ref.mixture_gain([(p, ref.TRINE[mclaim], mclaim),
                               (1.0 - p, ref.in_plane(angle), mclaim)], *MAIN), False),
        ]
        self.params = pkg.ProtocolParams(r=MAIN[0], R=MAIN[1])
        self.bob = pkg.BobStrategy.honest_optimal()
        self.seeds = _seeds(rng, len(self.senders))

    def _config(self, alice, rounds, seed, workers):
        return self.prog.pkg.SimConfig(rounds=rounds, seed=seed, params=self.params,
                                       alice=alice, bob=self.bob, workers=workers)

    def warm_up(self):
        self.prog.mc.simulate(self._config(self.senders[0][1], WARMUP_ROUNDS,
                                           self.seeds[0], self.WORKERS))

    def pre_check(self) -> list:
        """Worker-count independence: a short run split over the workers
        counts the same as the one-process run of the same configuration."""
        problems = []
        for (name, alice, _, _), seed in zip(self.senders, self.seeds):
            one = self.prog.mc.simulate(
                self._config(alice, self.PREFIX_ROUNDS, seed, 1)).to_record()
            split = self.prog.mc.simulate(
                self._config(alice, self.PREFIX_ROUNDS, seed, self.WORKERS)).to_record()
            try:
                for key in ("rounds", "win_count", "lose_count", "check_count", "accuse_count"):
                    _equal(f"{name} {key} with {self.WORKERS} workers", split[key], one[key])
                _close(f"{name} mean with {self.WORKERS} workers", split["mean_gain_alice"],
                       one["mean_gain_alice"], 1e-12 * max(1.0, abs(one["mean_gain_alice"])))
            except Mismatch as exc:
                problems.append(str(exc))
        return problems

    def ops(self, k: int) -> list:
        out = []
        for (name, alice, want, truthful), seed in zip(self.senders, self.seeds):
            cfg = self._config(alice, self.ROUNDS, seed + k, self.WORKERS)
            out.append(Op(f"simulate-{name}", lambda cfg=cfg: self.prog.mc.simulate(cfg),
                          lambda res, name=name, want=want, truthful=truthful:
                              self._check(name, res, want, truthful)))
        return out

    def _check(self, name, result, want, truthful) -> int:
        res = result.to_record()
        _equal(f"{name} aborted", res["aborted"], False)
        _check_result(name, res, self.ROUNDS, want, truthful=truthful)
        return res["rounds"]


WORKLOADS = {
    "separable-sweep": SeparableSweep,
    "entangled-scan": EntangledScan,
    "noisy-monitored-transcript": NoisyMonitoredTranscript,
    "split-workers": SplitWorkers,
}
