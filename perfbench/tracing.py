"""Span tracing of taplab from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds each module-level name that refers to it in any ``taplab`` module, so
a name bound by ``from .x import f`` is traced where its caller looks it up.
Each call appends one span (name, start, end, parent) to in-memory lists;
``per_layer`` turns the spans of the timed operations into the per-layer
metrics, and ``save`` writes the spans when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("kernels", "scalar", "amp", "ngd", "free_energy", "potential",
                  "experiments")
OP_PREFIX = "bench.op."
SETUP_SPAN = "bench.setup"

ENERGY = ("free_energy.tap_energy", "free_energy.mf_energy")
GRADIENT = ("free_energy.tap_gradient", "free_energy.mf_gradient")


def _rows_atoms(args, kwargs, out):
    return np.size(args[2]), len(args[0])  # (locs, logw, lam|mt, ...)


def _ngd_note(args, kwargs, trace):
    steps = trace.steps_used
    if trace.converged:
        stop = "converged"
    elif steps and steps[-1] == 0.0:
        stop = "step_floor"
    else:
        stop = "max_iters"
    return {"iterations": trace.iterations, "accepted": sum(1 for x in steps if x > 0),
            "clip_events": trace.clip_events, "stop": stop}


def _eig_name(args, kwargs):
    method = args[3] if len(args) > 3 else kwargs.get("method", "dense")
    return "free_energy.min_eigenvalue." + ("dense" if method == "dense" else "iter")


# per-call detail recorded for the spans that need more than a duration
NOTES = {
    "kernels.tilted_stats": _rows_atoms,
    "kernels.dual_newton": _rows_atoms,
    "ngd.ngd_run": _ngd_note,
}


class Tracer:
    def __init__(self):
        self.names, self.start, self.end, self.parent, self.notes = [], [], [], [], {}
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # -- spans ---------------------------------------------------------------
    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        namer = _eig_name if name == "free_energy.min_eigenvalue" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(namer(args, kwargs) if namer else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if note:
                self.notes[idx] = note(args, kwargs, out)
            return out

        return traced

    # -- installation --------------------------------------------------------
    def install(self):
        pkg = {k: v for k, v in sys.modules.items()
               if k == "taplab" or k.startswith("taplab.")}
        for short in TRACED_MODULES:
            mod = pkg["taplab." + short]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for other in pkg.values():
                    for oattr, obj in list(vars(other).items()):
                        if obj is fn:
                            setattr(other, oattr, wrapped)
                            self._patched.append((other, oattr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- output --------------------------------------------------------------
    def save(self, path):
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path, names=np.array(names), name=np.array([code[n] for n in self.names]),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent))

    def per_layer(self, rounds: int) -> dict:
        """Per-layer metrics of the spans under the benchmark's timed
        operations, per round; generate_instance runs only in set-up and is
        reported for the traced set-up."""
        n = len(self.names)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        root = list(range(n))
        under_ngd = [False] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
                root[i] = root[par]
                under_ngd[i] = under_ngd[par] or self.names[par] == "ngd.ngd_run"
        timed = [self.names[root[i]].startswith(OP_PREFIX) for i in range(n)]
        in_setup = [self.names[root[i]] == SETUP_SPAN for i in range(n)]

        calls, secs, self_s = {}, {}, {}
        for i in range(n):
            if timed[i]:
                nm = self.names[i]
                calls[nm] = calls.get(nm, 0) + 1
                secs[nm] = secs.get(nm, 0.0) + dur[i]
                self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]

        def c(*names):
            return sum(calls.get(x, 0) for x in names)

        def s(*names):
            return sum(secs.get(x, 0.0) for x in names)

        ts_rows = ts_atom_rows = nd_rows = 0
        ngd = {"iterations": 0, "accepted": 0, "clip_events": 0,
               "converged": 0, "step_floor": 0, "max_iters": 0}
        tilts_in_ngd = energy_in_ngd = 0
        for i in range(n):
            if not timed[i]:
                continue
            nm = self.names[i]
            # a call that raised has no note
            if nm == "kernels.tilted_stats":
                rows, atoms = self.notes.get(i, (0, 0))
                ts_rows += rows
                ts_atom_rows += rows * atoms
                tilts_in_ngd += under_ngd[i]
            elif nm == "kernels.dual_newton":
                nd_rows += self.notes.get(i, (0, 0))[0]
            elif nm == "ngd.ngd_run" and i in self.notes:
                note = self.notes[i]
                for k in ("iterations", "accepted", "clip_events"):
                    ngd[k] += note[k]
                ngd[note["stop"]] += 1
            elif nm in ENERGY:
                energy_in_ngd += under_ngd[i]
        gen_s = sum(dur[i] for i in range(n)
                    if in_setup[i] and self.names[i] == "experiments.generate_instance")

        candidates = energy_in_ngd - c("ngd.ngd_run")  # first energy is the start point
        iters = ngd["iterations"]

        def ratio(a, b):
            return a / b if b else 0.0

        r = float(rounds)
        out = {
            "kernels.tilted_stats.calls": c("kernels.tilted_stats") / r,
            "kernels.tilted_stats.rows": ts_rows / r,
            "kernels.tilted_stats.atom_rows": ts_atom_rows / r,
            "kernels.tilted_stats.s": s("kernels.tilted_stats") / r,
            "kernels.tilted_stats.ns_per_atom_row":
                ratio(1e9 * s("kernels.tilted_stats"), ts_atom_rows),
            "kernels.dual_newton.calls": c("kernels.dual_newton") / r,
            "kernels.dual_newton.rows": nd_rows / r,
            "kernels.dual_newton.s": s("kernels.dual_newton") / r,
            "scalar.mmse.calls": c("scalar.mmse") / r,
            "scalar.mmse.s": s("scalar.mmse") / r,
            "scalar.tilted_moments_vec.calls": c("scalar.tilted_moments_vec") / r,
            "scalar.tilted_cov_vec.calls": c("scalar.tilted_cov_vec") / r,
            "amp.amp_run.calls": c("amp.amp_run") / r,
            "amp.amp_run.s": s("amp.amp_run") / r,
            "amp.amp_run.self_s": self_s.get("amp.amp_run", 0.0) / r,
            "ngd.ngd_run.calls": c("ngd.ngd_run") / r,
            "ngd.ngd_run.s": s("ngd.ngd_run") / r,
            "ngd.ngd_run.self_s": self_s.get("ngd.ngd_run", 0.0) / r,
            "ngd.iterations": iters / r,
            "ngd.candidates": candidates / r,
            "ngd.backtracks": (candidates - ngd["accepted"]) / r,
            "ngd.accept_ratio": ratio(ngd["accepted"], candidates),
            "ngd.tilts_per_iteration": ratio(tilts_in_ngd, iters),
            "ngd.s_per_iteration": ratio(s("ngd.ngd_run"), iters),
            "ngd.clip_events": ngd["clip_events"] / r,
            "ngd.stop.converged": ngd["converged"] / r,
            "ngd.stop.step_floor": ngd["step_floor"] / r,
            "ngd.stop.max_iters": ngd["max_iters"] / r,
            "free_energy.energy.calls": c(*ENERGY) / r,
            "free_energy.energy.s": s(*ENERGY) / r,
            "free_energy.gradient.calls": c(*GRADIENT) / r,
            "free_energy.gradient.s": s(*GRADIENT) / r,
            "free_energy.min_eigenvalue.dense.s":
                s("free_energy.min_eigenvalue.dense") / r,
            "free_energy.min_eigenvalue.iter.s": s("free_energy.min_eigenvalue.iter") / r,
            "free_energy.min_eigenvalue.iter.calls":
                c("free_energy.min_eigenvalue.iter") / r,
            "free_energy.hessian_matvec.calls": c("free_energy.tap_hessian_matvec") / r,
            "potential.solve_gammas.calls": c("potential.solve_gammas") / r,
            "potential.solve_gammas.s": s("potential.solve_gammas") / r,
            "potential.phi.calls": c("potential.phi") / r,
            "potential.phi_prime.calls": c("potential.phi_prime") / r,
            "potential.phi_second.calls": c("potential.phi_second") / r,
            "experiments.generate_instance.s": gen_s,
            "experiments.fit_free_energy.calls": c("experiments.fit_free_energy") / r,
            "experiments.fit_free_energy.s": s("experiments.fit_free_energy") / r,
        }
        return {k: float(v) for k, v in out.items()}
