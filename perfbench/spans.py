"""Spans and counts recorded from outside the program.

Every layer is timed by wrapping its public functions at the place they are
looked up: `from .x import f` binds `f` separately in each importing module,
so a function is replaced in every `chbsim.*` module that holds the same
object, and put back afterwards.  Nothing under `src/` is edited.

`Tracer` records one span (name, start, end, parent) per call and keeps them
in memory until the benchmark writes them out; `Stamps` is the light-weight
probe of untraced runs, one clock reading per step entry and one per run exit.
"""
from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chbsim" or name.startswith("chbsim."))]


@contextmanager
def patched(replacements):
    """Replace functions in every chbsim module that binds them.

    `replacements` maps (origin module, attribute) to a factory that takes
    the original function and returns its stand-in.
    """
    undo = []
    try:
        for (origin, attr), factory in replacements.items():
            original = getattr(sys.modules[origin], attr)
            stand_in = factory(original)
            for mod in _modules():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, stand_in)
                    undo.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Untraced runs: step timestamps only
# ---------------------------------------------------------------------------

class Stamps:
    """Clock readings at each entry of the step function and at run exit.

    `pause` is called after each entry reading; it may do other work and
    returns the seconds it took, recorded in `pauses` beside the reading."""

    def __init__(self, pause) -> None:
        self.entries: list[float] = []
        self.pauses: list[float] = []
        self.exits: list[float] = []
        self._pause = pause

    def entry(self, fn):
        entries, pauses, pause = self.entries, self.pauses, self._pause

        def stamped(*args, **kwargs):
            entries.append(time.perf_counter())
            pauses.append(pause())
            return fn(*args, **kwargs)
        return stamped

    def exit(self, fn):
        exits = self.exits

        def stamped(*args, **kwargs):
            out = fn(*args, **kwargs)
            exits.append(time.perf_counter())
            return out
        return stamped


# ---------------------------------------------------------------------------
# Traced runs: spans at every layer boundary
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index]; the parent is the innermost
    span open when the call started (-1 at top level).  Hooks called after a
    span closes record exact counts: solver iterations, bytes written and
    states held.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.values: dict[str, list] = defaultdict(list)

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            return out if after is None else after(self, rec, args, out)
        return traced

    def parent_name(self, rec) -> str:
        return self.spans[rec[3]][0] if rec[3] >= 0 else ""

    # -- hooks ------------------------------------------------------------

    @staticmethod
    def _iterations(key):
        def hook(tracer, rec, args, out):
            tracer.values[key].append((tracer.parent_name(rec), out[1].iterations))
            return out
        return hook

    @staticmethod
    def _operator(tracer, rec, args, op):
        op.apply = tracer.wrap("brinkman.apply", op.apply)
        return op

    @staticmethod
    def _snapshot(tracer, rec, args, out):
        tracer.values["io.snapshot_bytes"].append(os.path.getsize(args[2]))
        return out

    @staticmethod
    def _states(tracer, rec, args, out):
        tracer.values["io.states_held"].append(len(out.states))
        return out

    def replacements(self) -> dict:
        """Every wrapped function: (module, attribute) -> span factory.

        A span is named after the module and function it wraps."""
        table = {
            ("timestepper", "step"): None,
            ("timestepper", "solve_flow"): None,
            ("timestepper", "step_phase"): None,
            ("timestepper", "step_nutrient"): None,
            ("timestepper", "run"): self._states,
            ("brinkman", "solve_brinkman"): None,
            ("brinkman", "brinkman_operator"): self._operator,
            ("elliptic", "solve_minres"): self._iterations("minres"),
            ("elliptic", "solve_spd"): self._iterations("cg"),
            ("elliptic", "solve_general"): self._iterations("bicgstab"),
            ("elliptic", "apply_neumann_laplacian"): None,
            ("galerkin", "integrate"): None,
            ("galerkin", "assemble_matrices"): None,
            ("diagnostics", "energy"): None,
            ("diagnostics", "energy_budget"): None,
            ("diagnostics", "mass_balances"): None,
            ("io", "run_from_config"): None,
            ("io", "write_snapshot"): self._snapshot,
            ("io", "write_timeseries"): None,
        }
        for attr in CONSTITUTIVE:
            table[("constitutive", attr)] = None
        return {(f"chbsim.{mod}", attr):
                (lambda fn, name=f"{mod}.{attr}", after=after: self.wrap(name, fn, after))
                for (mod, attr), after in table.items()}

    def active(self):
        return patched(self.replacements())

    # -- summaries --------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (the span
        minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return out

    def counts(self) -> dict:
        """Machine-independent counts, for the exact-repeat check."""
        out = {f"calls.{name}": row["calls"] for name, row in self.table().items()}
        for key, pairs in sorted(self.values.items()):
            if key.startswith("io."):
                out[key] = sum(pairs)
            else:
                for parent, iters in pairs:
                    name = f"iters.{key}.{parent}"
                    out[name] = out.get(name, 0) + iters
        return out


CONSTITUTIVE = ("sources", "mobilities", "viscosities", "potential_eval",
                "nutrient_energy")
MODULES = ("timestepper", "brinkman", "elliptic", "constitutive",
           "diagnostics", "galerkin", "io")


def layer_metrics(tracer: Tracer, steps: int) -> dict[str, tuple]:
    """Per-layer metrics of one traced solution: name -> (value, unit).

    `steps` is the number of time steps the solution took (RK4 steps for the
    Galerkin route); "per step" figures divide by it.
    """
    tab = tracer.table()

    def calls(name):
        return tab.get(name, {}).get("calls", 0)

    def total(name):
        return tab.get(name, {}).get("total_s", 0.0)

    def mean(name, scale):
        n = calls(name)
        return scale * total(name) / n if n else 0.0

    def mean_iters(key, parent=None):
        vals = [it for par, it in tracer.values.get(key, [])
                if parent is None or par == parent]
        return sum(vals) / len(vals) if vals else 0.0

    per_step = 1.0 / steps
    solves = calls("brinkman.solve_brinkman")
    minres_in_brinkman = sum(end - start for name, start, end, parent in tracer.spans
                             if name == "elliptic.solve_minres" and parent >= 0
                             and tracer.spans[parent][0] == "brinkman.solve_brinkman")
    galerkin_flow = [end - start for name, start, end, parent in tracer.spans
                     if name == "brinkman.solve_brinkman" and parent >= 0
                     and tracer.spans[parent][0] == "galerkin.integrate"]
    stepping = total("timestepper.step") or total("galerkin.integrate")
    stage = {key: total(f"timestepper.{key}")
             for key in ("solve_flow", "step_phase", "step_nutrient")}
    self_by_module = dict.fromkeys(MODULES, 0.0)
    for name, row in tab.items():
        module = name.split(".", 1)[0]
        if module in self_by_module:
            self_by_module[module] += row["self_s"]
    snaps = tracer.values.get("io.snapshot_bytes", [])
    held = tracer.values.get("io.states_held", [])

    m = {
        "timestepper.flow_ms": (1e3 * stage["solve_flow"] * per_step, "ms"),
        "timestepper.phase_ms": (1e3 * stage["step_phase"] * per_step, "ms"),
        "timestepper.nutrient_ms": (1e3 * stage["step_nutrient"] * per_step, "ms"),
        "timestepper.step_self_ms": (1e3 * (total("timestepper.step") - sum(stage.values()))
                                     * per_step, "ms"),
        "brinkman.solve_ms": (mean("brinkman.solve_brinkman", 1e3), "ms"),
        "brinkman.minres_iters": (mean_iters("minres", "brinkman.solve_brinkman"), "count"),
        "brinkman.apply_us": (mean("brinkman.apply", 1e6), "us"),
        "brinkman.applies_per_solve": (calls("brinkman.apply") / solves if solves else 0.0,
                                       "count"),
        "brinkman.setup_ms": (1e3 * (total("brinkman.solve_brinkman") - minres_in_brinkman)
                              / solves if solves else 0.0, "ms"),
        "brinkman.share": (total("brinkman.solve_brinkman") / stepping if stepping else 0.0,
                           "ratio"),
        "elliptic.cg_iters": (mean_iters("cg"), "count"),
        "elliptic.solve_spd_ms": (mean("elliptic.solve_spd", 1e3), "ms"),
        "elliptic.bicgstab_iters.phase": (mean_iters("bicgstab", "timestepper.step_phase"),
                                          "count"),
        "elliptic.bicgstab_iters.nutrient": (mean_iters("bicgstab",
                                                        "timestepper.step_nutrient"), "count"),
        "elliptic.solve_general_ms": (mean("elliptic.solve_general", 1e3), "ms"),
        "elliptic.solve_minres_ms": (mean("elliptic.solve_minres", 1e3), "ms"),
        "elliptic.laplacian_calls_per_step": (calls("elliptic.apply_neumann_laplacian")
                                              * per_step, "count"),
        "elliptic.laplacian_us": (mean("elliptic.apply_neumann_laplacian", 1e6), "us"),
        "constitutive.sources_calls_per_step": (calls("constitutive.sources") * per_step,
                                                "count"),
        "constitutive.ms_per_step": (1e3 * sum(total(f"constitutive.{a}") for a in CONSTITUTIVE)
                                     * per_step, "ms"),
        "diagnostics.energy_calls_per_step": (calls("diagnostics.energy") * per_step, "count"),
        "diagnostics.energy_budget_ms": (1e3 * total("diagnostics.energy_budget") * per_step,
                                         "ms"),
        "diagnostics.mass_balances_ms": (1e3 * total("diagnostics.mass_balances") * per_step,
                                         "ms"),
        "galerkin.flow_solves": (len(galerkin_flow), "count"),
        "galerkin.assemble_ms": (mean("galerkin.assemble_matrices", 1e3), "ms"),
        "galerkin.self_share": ((total("galerkin.integrate") - sum(galerkin_flow))
                                / total("galerkin.integrate")
                                if total("galerkin.integrate") else 0.0, "ratio"),
        "io.snapshot_ms": (mean("io.write_snapshot", 1e3), "ms"),
        "io.snapshot_bytes": (sum(snaps), "B"),
        "io.timeseries_ms": (mean("io.write_timeseries", 1e3), "ms"),
        "io.states_held": (sum(held) / len(held) if held else 0.0, "count"),
    }
    for module in MODULES:
        m[f"self_ms.{module}"] = (1e3 * self_by_module[module] * per_step, "ms")
    return m
