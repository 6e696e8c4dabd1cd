"""Spans around the calls into greenball's layers, from outside the library.

`install` wraps each public function of a layer where callers look it up:
the defining module and every other greenball module (and the package
namespace) that imported the same object, so `greenball.cli` calling its
own `eigenvalues_shooting` is seen as well as `greenball.smallball` calling
it.  Methods are wrapped on their class.  Spans record (op, start, end,
parent, task); they stay in memory until the run writes them out.

`model.weight_eval` (`Weight.__call__`, once per Runge-Kutta stage) is
counted, not spanned: it runs millions of times in a shooting workload.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


def _grid_nodes(grid):
    return grid if isinstance(grid, int) else grid.n


def _nystrom_work(c, args, kwargs, out):
    kern, K = args[0], args[2]
    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    n = _grid_nodes(kern.grid if grid is None else grid)
    if out is not None:
        c["spectrum.nystrom.eigs"] += K
    # primary and doubled grid solves: matrix orders and the dense-eigensolve
    # cost they imply (computed from the orders, not counted by greenball)
    c["spectrum.nystrom.order_sum"] += 3 * n
    c["spectrum.nystrom.n3_computed"] += n ** 3 + (2 * n) ** 3


def _shooting_work(c, args, kwargs, out):
    if out is not None:
        c["spectrum.shooting.eigs"] += len(out)


def _evaluate_on_work(c, args, kwargs, out):
    c["kernels.evaluate_on.nodes"] += args[1].n


def _mc_work(c, args, kwargs, out):
    n = args[2]
    c["smallball.mc.samples"] += n
    c["smallball.mc.normals"] += n * np.asarray(args[0]).size


def _cli_failed(out):
    return out != 0


#: (op, module, attribute path, work counter hook, result-is-failure test)
TARGETS = [
    ("cli.main", "greenball.cli", "main", None, _cli_failed),
    ("model.weight_parse", "greenball.model", "Weight.from_text", None, None),
    ("spectrum.shooting", "greenball.spectrum", "eigenvalues_shooting",
     _shooting_work, None),
    ("spectrum.nystrom", "greenball.spectrum", "nystrom_eigenvalues",
     _nystrom_work, None),
    ("spectrum.product", "greenball.spectrum", "eigenvalue_product", None,
     None),
    ("kernels.build", "greenball.kernels", "build_process", None, None),
    ("kernels.build", "greenball.kernels", "base_kernel", None, None),
    ("kernels.build", "greenball.kernels", "apply_weight", None, None),
    ("kernels.build", "greenball.kernels", "integrate_kernel", None, None),
    ("kernels.build", "greenball.kernels", "center_kernel", None, None),
    ("kernels.build", "greenball.kernels", "condition_kernel", None, None),
    ("kernels.evaluate_on", "greenball.kernels", "Kernel.evaluate_on",
     _evaluate_on_work, None),
    ("quadrature.integrate_rows", "greenball.quadrature", "integrate_rows",
     None, None),
    ("quadrature.integrate_full", "greenball.quadrature", "integrate_full",
     None, None),
    ("theta", "greenball.theta", "ratio_limit", None, None),
    ("theta", "greenball.theta", "closed_form_ratio", None, None),
    ("theta", "greenball.theta", "theta_det", None, None),
    ("smallball.asymptotic", "greenball.smallball", "process_asymptotic",
     None, None),
    ("smallball.asymptotic", "greenball.smallball", "evaluate_asymptotic",
     None, None),
    ("smallball.asymptotic", "greenball.smallball",
     "log_evaluate_asymptotic", None, None),
    ("smallball.saddle", "greenball.smallball",
     "smallball_probability_exact", None, None),
    ("smallball.tail", "greenball.smallball", "WeylTailModel.fitted", None,
     None),
    ("smallball.tail", "greenball.smallball", "WeylTailModel.calibrated",
     None, None),
    ("smallball.tail", "greenball.smallball", "WeylTailModel.log_laplace",
     None, None),
    ("smallball.tail", "greenball.smallball", "WeylTailModel.d1", None, None),
    ("smallball.tail", "greenball.smallball", "WeylTailModel.d2", None, None),
    ("smallball.tail", "greenball.smallball", "WeylTailModel.mean", None,
     None),
    ("smallball.mc", "greenball.smallball", "monte_carlo_probability",
     _mc_work, None),
    ("smallball.convergence", "greenball.smallball",
     "comparison_convergence", None, None),
]


class Tracer:
    """In-memory spans and counters for one workload process."""

    def __init__(self):
        self.spans = []   # [op, start, end, parent, task, failed, nested]
        self._stack = []
        self._open = defaultdict(int)
        self.counters = defaultdict(float)
        self.task = "setup"
        self._restore = []
        #: targets the installed greenball no longer has; their metrics read 0
        self.missing = []

    def wrap(self, op, fn, work=None, failed=None):
        spans, stack, is_open = self.spans, self._stack, self._open
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            # a call inside a call of the same op adds work, not busy time
            span = [op, _clock(), 0.0, stack[-1] if stack else -1, self.task,
                    False, is_open[op] > 0]
            spans.append(span)
            stack.append(idx)
            is_open[op] += 1
            out = None
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = _clock()
                stack.pop()
                is_open[op] -= 1
                # work done before a raise still counts; out is None then
                if work is not None:
                    try:
                        work(counters, args, kwargs, out)
                    except (IndexError, KeyError, AttributeError, TypeError):
                        # a changed signature loses the count, not the run
                        counters[f"{op}.uncounted"] += 1
            if failed is not None and failed(out):
                span[5] = True
            return out

        return traced

    def count_calls(self, fn):
        """Counter-only wrapper for Weight.__call__ (no span)."""
        c = self.counters

        @functools.wraps(fn)
        def counted(self_, t):
            t0 = _clock()
            out = fn(self_, t)
            c["model.weight_eval.busy_s"] += _clock() - t0
            c["model.weight_eval.calls"] += 1
            c["model.weight_eval.points"] += np.size(t)
            return out

        return counted

    def install(self):
        """Wrap every target; `uninstall` puts the originals back."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "greenball"
                                      or name.startswith("greenball."))]
        for op, modname, path, work, failed in TARGETS:
            owner = sys.modules.get(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    self.missing.append(f"{modname}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(op, raw.__func__, work,
                                                failed))
                else:
                    new = self.wrap(op, raw, work, failed)
                self._patch(cls, attr, raw, new)
                continue
            orig = getattr(owner, path, None)
            if orig is None:
                self.missing.append(f"{modname}.{path}")
                continue
            new = self.wrap(op, orig, work, failed)
            for m in mods:
                if getattr(m, path, None) is orig:
                    self._patch(m, path, orig, new)
        weight = getattr(sys.modules.get("greenball.model"), "Weight", None)
        raw = getattr(weight, "__dict__", {}).get("__call__")
        if raw is None:
            self.missing.append("greenball.model.Weight.__call__")
        else:
            self._patch(weight, "__call__", raw, self.count_calls(raw))

    def _patch(self, obj, attr, orig, new):
        setattr(obj, attr, new)
        self._restore.append((obj, attr, orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def summary(self):
        """Per-op calls, busy, self time and failures.

        calls, busy_s and failed count the outermost spans of an op only;
        self_s sums every span's duration minus the time its direct
        children cover.
        """
        child = [0.0] * len(self.spans)
        for op, t0, t1, parent, task, failed, nested in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (op, t0, t1, parent, task, failed, nested) in \
                enumerate(self.spans):
            out[f"{op}.self_s"] += t1 - t0 - child[i]
            if not nested:
                out[f"{op}.calls"] += 1
                out[f"{op}.busy_s"] += t1 - t0
                out[f"{op}.failed"] += failed
        out.update(self.counters)
        return out

    def top_level_busy(self):
        return sum(t1 - t0 for _, t0, t1, parent, task, *_ in self.spans
                   if parent < 0 and task != "setup")

    def records(self):
        return [{"op": op, "start": t0, "end": t1, "parent": parent,
                 "task": task, "failed": failed}
                for op, t0, t1, parent, task, failed, _ in self.spans]
