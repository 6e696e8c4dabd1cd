"""greenball benchmark: three oracle-checked workloads, one command.

    python3 perfbench/run.py --workload compare|chains|tails|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (perfbench/child.py) with BLAS threads capped at nproc; the
workloads never overlap.  Within a workload the tasks run back to back,
a closed loop with one client.  The last line of standard output is one
JSON object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run and its overhead against the untraced
median.  Records, digests and spans go to .perfbench_out/ in the checkout.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("compare", "chains", "tails")
#: fresh interpreters timed for set-up, besides the workload process itself
SETUP_PROBES = 2
#: one workload's run, every child included, ends within this many seconds
RUN_TIMEOUT = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("digits_min", "digits"),
              ("ok_frac", "ratio"), ("peak_rss_mb", "MB"))

_OPS = {
    "spectrum.shooting": ("calls", "busy_s", "eigs", "failed"),
    "model.weight_eval": ("calls", "points", "busy_s"),
    "spectrum.nystrom": ("calls", "busy_s", "eigs", "failed", "order_sum",
                         "n3_computed"),
    "kernels.build": ("calls", "busy_s"),
    "kernels.evaluate_on": ("calls", "nodes", "busy_s"),
    "quadrature.integrate_rows": ("calls", "busy_s"),
    "quadrature.integrate_full": ("calls", "busy_s"),
    "smallball.saddle": ("calls", "busy_s", "self_s", "failed"),
    "smallball.tail": ("calls", "busy_s"),
    "smallball.mc": ("calls", "samples", "busy_s", "normals_per_s"),
    "cli.main": ("calls", "busy_s", "self_s", "failed"),
    "smallball.convergence": ("self_s",),
    "spectrum.product": ("busy_s",),
    "theta": ("calls", "busy_s"),
    "smallball.asymptotic": ("calls", "busy_s"),
    "model.weight_parse": ("busy_s",),
}
_UNITS = {"busy_s": "s", "self_s": "s", "normals_per_s": "1/s"}
PER_LAYER = tuple((f"{op}.{stat}", _UNITS.get(stat, "count"))
                  for op, stats in _OPS.items() for stat in stats) + (
    ("setup.import_s", "s"), ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"))


def child_env():
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    src = os.path.join(ROOT, "src")
    env.update(OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap,
               MKL_NUM_THREADS=cap, PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [env.get("PYTHONPATH")] if p]))
    return env


def run_child(workload, seed, seconds, trace, mode, deadline):
    """(seconds from spawn to READY, parsed result or None); the child is
    killed at `deadline` (time.monotonic())."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), str(seconds), "1" if trace else "0", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"{workload} child ({mode}) failed with exit "
                           f"code {code}")
    if mode == "setup":
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def _untraced_records(workload, source):
    """Earlier untraced runs of this workload on the same source."""
    path = os.path.join(OUT_DIR, "runs.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records
            if r["workload"] == workload and r["source"] == source]


def _record(entry):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(entry) + "\n")


def _summary(res):
    tasks = res["tasks"]
    ok = sum(t["outcome"] == "ok" for t in tasks)
    return {
        "attempted": len(tasks),
        "failed": len(tasks) - ok,
        # a wrong answer, a crash or changed bytes; a typed error, a CLI
        # exit code or a 3-sigma Monte Carlo miss is a failed task instead
        "correct": not any(t["outcome"] in ("oracle_miss", "byte_mismatch",
                                            "crash") for t in tasks),
        "ok_frac": ok / len(tasks),
    }


def untraced(workload, seed, seconds, deadline):
    setups = [run_child(workload, seed, seconds, False, "setup", deadline)[0]
              for _ in range(SETUP_PROBES)]
    ready, res = run_child(workload, seed, seconds, False, "run", deadline)
    setups.append(ready)
    s = _summary(res)
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": res["wall_s"], "digits_min": res["digits_min"],
               "ok_frac": s["ok_frac"], "peak_rss_mb": res["peak_rss_mb"]}
    _record({"workload": workload, "seed": seed,
             "source": res["env"]["source_sha256"], "wall_s": res["wall_s"],
             "setup_samples": setups})
    return res, s, metrics


def traced(workload, seed, seconds, deadline):
    _, res = run_child(workload, seed, seconds, True, "run", deadline)
    source = res["env"]["source_sha256"]
    base = _untraced_records(workload, source)
    if not base:
        # the overhead is measured, so a first traced run makes its baseline
        untraced(workload, seed, seconds, deadline)
        base = _untraced_records(workload, source)
    same_seed = [r for r in base if r["seed"] == seed]
    untraced_median = statistics.median(r["wall_s"]
                                        for r in (same_seed or base))
    layers = res["layers"]
    metrics = {}
    for name, _ in PER_LAYER:
        metrics[name] = float(layers.get(name, 0.0))
    mc_busy = layers.get("smallball.mc.busy_s", 0.0)
    metrics["smallball.mc.normals_per_s"] = (
        layers.get("smallball.mc.normals", 0.0) / mc_busy if mc_busy else 0.0)
    metrics["setup.import_s"] = res["import_s"]
    metrics["process.cpu_s"] = res["cpu_s"]
    metrics["trace.overhead_s"] = res["wall_s"] - untraced_median
    metrics["trace.coverage"] = res["top_level_busy_s"] / res["wall_s"]
    res["untraced_median_s"] = untraced_median
    res["untraced_basis"] = "same seed" if same_seed else "all seeds"
    return res, _summary(res), metrics


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_TIMEOUT
    res, s, values = (traced if trace else untraced)(workload, seed, seconds,
                                                     deadline)
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    res["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR,
                        f"result-{workload}-{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)

    print(f"== {workload}  seed={seed}  a={res['env']['a']:.6f}  "
          f"nproc={res['env']['nproc']}  "
          f"blas={res['env']['blas']['name']} "
          f"threads={res['env']['blas_thread_cap']['OPENBLAS_NUM_THREADS']}")
    for t in res["tasks"]:
        print(f"  task {t['task']:<28} {t['outcome']:<12} "
              f"{t['seconds']:8.3f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if trace:
        print(f"  tracing overhead: {metrics['trace.overhead_s']['value']:.3f}"
              f" s against the untraced median "
              f"{res['untraced_median_s']:.3f} s ({res['untraced_basis']})")
        for name in res["missing_targets"]:
            print(f"  not traced (absent from greenball): {name}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    return {"correct": s["correct"], "attempted": s["attempted"],
            "failed": s["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "greenball",
                                       "__init__.py")):
        print("error: src/greenball not found; run from a greenball "
              "checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
