"""Tests of the benchmark itself: the reference's textbook values, the
output checks, and one short pass of every workload with all checks on.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import types
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


# ---------------------------------------------------------------------------
# reference


def test_discrimination_rate_is_two_thirds():
    assert ref.discrimination_rate() == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("r, R", [(0.05, 398.0), (0.01, 1998.0), (0.3, 10.0)])
def test_honest_gain_is_the_checking_rate(r, R):
    assert ref.honest_gain(r, R) == pytest.approx(r, abs=1e-14)


def test_cross_trine_accusation_rate_is_three_quarters():
    for sent in ref.LABELS:
        for claim in ref.LABELS:
            want = 0.0 if sent == claim else 0.75
            assert ref.accusation_rate(ref.TRINE[sent], claim) == pytest.approx(want, abs=1e-15)


def test_noise_moves_the_overlap_halfway_to_a_coin():
    # full depolarization leaves overlap 1/2 whatever was sent
    assert ref.accusation_rate(ref.TRINE["b"], "a", lam=1.0) == pytest.approx(0.5)
    assert ref.honest_gain(0.05, 398.0, lam=0.1) == pytest.approx(
        ref.gain_from_overlap(0.95, 0.05, 398.0))


def _attack_sender():
    s = 1.0 / math.sqrt(2.0)
    psi = SimpleNamespace(c00=s, c01=0.0, c10=0.0, c11=s)
    angles, claims = ref.attack_policy()
    basis = {}
    for g, angle in angles.items():
        u = ref.in_plane(angle)
        v = np.array([-np.conj(u[1]), np.conj(u[0])])
        basis[g] = (SimpleNamespace(a0=u[0], a1=u[1]), SimpleNamespace(a0=v[0], a1=v[1]))
    return psi, basis, claims


@pytest.mark.parametrize("r", [0.05, 0.01, 0.1])
def test_attack_gain_at_k_twenty(r):
    psi, basis, claims = _attack_sender()
    R = 20.0 / r - 2.0
    gain = ref.entangled_gain(psi, basis, claims, r, R)
    assert gain == pytest.approx(ref.attack_gain_closed_form(r, R), abs=1e-12)
    assert gain == pytest.approx(0.660254, abs=5e-7)


def test_entangled_reference_of_a_product_state_is_the_separable_gain():
    # kept qubit |0>, sent qubit the trine state b, claim b whatever happens
    b = ref.TRINE["b"]
    psi = SimpleNamespace(c00=b[0], c01=b[1], c10=0.0, c11=0.0)
    basis = {g: (SimpleNamespace(a0=1.0, a1=0.0), SimpleNamespace(a0=0.0, a1=1.0))
             for g in ref.LABELS}
    for claim in ("b", "a"):
        claims = {(g, j): claim for g in ref.LABELS for j in (0, 1)}
        assert ref.entangled_gain(psi, basis, claims, 0.05, 398.0) == pytest.approx(
            ref.separable_gain(b, claim, 0.05, 398.0), abs=1e-12)


# ---------------------------------------------------------------------------
# output checks reject wrong output


def test_sweep_check_rejects_a_wrong_analytic_column(tmp_path):
    sweep = wl.SeparableSweep(3, str(tmp_path))
    op = sweep.ops(0)[0]
    text = op.call()
    assert op.check(text) == len(sweep.thetas) * sweep.THETA_ROUNDS
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[1] = ",".join(cells)
    with pytest.raises(wl.Mismatch):
        op.check("\n".join(lines) + "\n")


def test_transcript_check_rejects_a_dropped_round(tmp_path):
    noisy = wl.NoisyMonitoredTranscript(3, str(tmp_path))
    for op in noisy.ops(0):
        text = op.call()
        op.check(text)
    with open(noisy.path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    with open(noisy.path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(wl.Mismatch):
        op.check(text)
    noisy.close()


# ---------------------------------------------------------------------------
# tracing


def test_tracer_patches_every_namespace_and_lists_absent_names(monkeypatch):
    inner = types.ModuleType("fakepkg.inner")
    exec("def leaf(x):\n    return x + 1\n", inner.__dict__)
    outer = types.ModuleType("fakepkg.outer")
    outer.leaf = inner.leaf  # as `from .inner import leaf` would bind it
    exec("def twice(x):\n    return leaf(x) * 2\n", outer.__dict__)
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")),
                      ("fakepkg.inner", inner), ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, mod)
    monkeypatch.setattr(tracing, "PACKAGE", "fakepkg")
    monkeypatch.setattr(tracing, "_ACTIVE", None)
    monkeypatch.setattr(tracing, "LAYERS", {"inner.leaf": ("inner", "leaf"),
                                            "outer.twice": ("outer", "twice"),
                                            "inner.gone": ("inner", "gone")})
    tracer = tracing.Tracer().install()
    assert outer.twice(1) == 4
    assert inner.leaf(1) == 2
    assert tracer.calls == {"inner.leaf": 2, "outer.twice": 1, "inner.gone": 0}
    assert tracer.absent == ["inner.gone"]
    assert all(v >= 0.0 for v in tracer.busy.values())
    assert set(tracer.metrics()) == {f"{layer}.{kind}" for layer in tracing.LAYERS
                                     for kind in ("calls", "busy_s")}


# ---------------------------------------------------------------------------
# gauging the machine's speed


def test_gauge_runs_whole_units_for_at_least_the_time_asked():
    gauge = calibrate.Gauge()
    gauge.run_for(0.02)
    gauge.run_for(0.0)
    assert gauge.units >= 2 and gauge.seconds >= 0.02
    assert gauge.speed() == calibrate.REFERENCE_UNIT_S * gauge.units / gauge.seconds


# ---------------------------------------------------------------------------
# every workload, one pass


def _run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _detail(workload, trace, seed=7):
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    # the reported throughput is the wall-clock one at the reference speed
    detail = _detail(workload, 0)
    assert metrics["rounds_per_s"]["value"] == pytest.approx(
        detail["wall_rounds_per_s"] / detail["speed"])
    # the only calls allowed to fail are exact enumerations of entangled senders
    failed = detail["failures"]
    assert all(name.startswith("enumerate_exact-") for name in failed), failed
    assert result["failed"] == (result["attempted"] // 2 if failed else 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat(workload):
    counts = []
    for _ in range(2):
        proc = _run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, proc.stderr
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["protocol.run_round.calls"] > 0


def test_without_the_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("separable-sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
