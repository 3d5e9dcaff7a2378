"""Per-layer call counts and self time, recorded from outside the program.

``Tracer.install`` replaces each traced function by a counting wrapper in
every ``trinegamble`` module namespace that holds it, so a call reaches
the wrapper whichever module it is looked up in (``run_round`` through
``montecarlo``, ``sample_outcome`` through ``qubit`` and ``strategies``).
A layer's self time is its wrappers' elapsed time minus the elapsed time
of the traced calls made inside them. A name that the program no longer
defines is listed as absent and reports zero calls.

Worker processes of a ``workers > 1`` simulation are forked with the
wrappers in place; each worker's counts travel back inside its result and
are merged when the parent unpickles it.
"""

from __future__ import annotations

import sys
import time

# layer name -> (module, attribute); "Class.method" patches the class,
# "*.method" patches every sender class of the module that defines it
LAYERS = {
    "montecarlo.simulate": ("montecarlo", "simulate"),
    "montecarlo.stream": ("montecarlo", "_round_rows"),
    "montecarlo.enumerate_exact": ("montecarlo", "enumerate_exact"),
    "protocol.run_round": ("protocol", "run_round"),
    "protocol.settle": ("protocol", "settle"),
    "protocol.bob_check": ("protocol", "bob_check"),
    "protocol.ledger_update": ("protocol", "Ledger.update"),
    "protocol.abort_monitor": ("protocol", "abort_monitor"),
    "protocol.transcript_line": ("protocol", "transcript_line"),
    "strategies.prepare": ("strategies", "*.prepare"),
    "strategies.adjudicate": ("strategies", "*.adjudicate"),
    "strategies.act": ("strategies", "BobStrategy.act"),
    "qubit.born_probabilities": ("qubit", "born_probabilities"),
    "qubit.sample_outcome": ("qubit", "sample_outcome"),
    "qubit.project_check": ("qubit", "project_check"),
    "qubit.remote_povm_collapse": ("qubit", "remote_povm_collapse"),
    "qubit.local_measure_collapse": ("qubit", "local_measure_collapse"),
    "qubit.pure_state_new": ("qubit", "PureState.__post_init__"),
    "qubit.depolarize": ("qubit", "depolarize"),
    "qubit.density_new": ("qubit", "DensityOperator.__post_init__"),
    "cli.main": ("cli", "main"),
}

PACKAGE = "trinegamble"

_ACTIVE = None  # the installed tracer, which worker results merge into


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.absent = []
        # elapsed time of traced children, one slot per open traced call
        self._child = [0.0]

    def wrap(self, layer: str, fn):
        calls, busy, child = self.calls, self.busy, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                busy[layer] += dt - child.pop()
                calls[layer] += 1
                child[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        global _ACTIVE
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, (mod_name, attr) in LAYERS.items():
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if mod is None or not self._patch(layer, mod, attr, modules):
                self.absent.append(layer)
        self._patch_worker(sys.modules.get(f"{PACKAGE}.montecarlo"))
        _ACTIVE = self
        return self

    def _patch(self, layer, mod, attr, modules) -> bool:
        owner, _, method = attr.rpartition(".")
        if owner:
            classes = [getattr(mod, owner, None)] if owner != "*" else [
                c for c in vars(mod).values()
                if isinstance(c, type) and c.__module__ == mod.__name__
                and callable(c.__dict__.get("prepare")) and callable(c.__dict__.get("adjudicate"))]
            hit = False
            for cls in classes:
                fn = None if cls is None else cls.__dict__.get(method)
                if callable(fn):
                    setattr(cls, method, self.wrap(layer, fn))
                    hit = True
            return hit
        fn = getattr(mod, attr, None)
        if not callable(fn):
            return False
        wrapper = self.wrap(layer, fn)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, name, wrapper)
        return True

    def _patch_worker(self, montecarlo) -> None:
        original = getattr(montecarlo, "_worker", None)
        if not callable(original):
            return

        def _worker(args):
            # runs in a forked worker: count only this block's calls
            for layer in LAYERS:
                self.calls[layer] = 0
                self.busy[layer] = 0.0
            return _WorkerPart(original(args), dict(self.calls), dict(self.busy))

        # pickled by reference to the patched module attribute
        _worker.__module__ = montecarlo.__name__
        _worker.__qualname__ = "_worker"
        montecarlo._worker = _worker

    def merge(self, calls: dict, busy: dict) -> None:
        for layer in LAYERS:
            self.calls[layer] += calls.get(layer, 0)
            self.busy[layer] += busy.get(layer, 0.0)

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = {"value": self.calls[layer], "unit": "count"}
            out[f"{layer}.busy_s"] = {"value": self.busy[layer], "unit": "s"}
        return out


class _WorkerPart(tuple):
    """A worker's block sums; unpickling in the parent merges its counts."""

    def __new__(cls, sums, calls, busy):
        part = super().__new__(cls, sums)
        part.layer_calls = calls
        part.layer_busy = busy
        return part

    def __reduce__(self):
        return _merge_part, (tuple(self), self.layer_calls, self.layer_busy)


def _merge_part(sums, calls, busy):
    if _ACTIVE is not None:
        _ACTIVE.merge(calls, busy)
    return sums
