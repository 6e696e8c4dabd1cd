"""One workload in one fresh interpreter; started by run.py.

    python3 perfbench/child.py <workload> <seed> <seconds> <trace 0|1> <mode>

mode `setup` stops after printing READY (a set-up time sample); mode `run`
continues: computes the references (untimed), runs the task list as a
closed loop with one client, checks every output and prints one JSON line.
The parent times set-up from process start to the READY line.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

_clock = time.perf_counter


def source_fingerprint(root):
    """sha256 over greenball's sources, so records of different code never
    mix."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "greenball")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment(root, inputs):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_config": blas.get("openblas configuration")},
        "blas_thread_cap": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_fingerprint(root),
        "workload": inputs.workload,
        "seed": inputs.seed,
        "a": inputs.a,
        "mc_seed": inputs.mc_seed,
    }


def cli_digest(out):
    return hashlib.sha256(
        f"{out.code}\n{out.stdout}\0{out.stderr}".encode()).hexdigest()


def run_pass(tasks, ref, tracer):
    """Closed loop: each task starts when the previous one returned."""
    from greenball import GreenballError
    results = []
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        out, error = None, None
        t0 = _clock()
        try:
            out = task.run(ref)
        except GreenballError as exc:
            error = ("typed_error", f"{type(exc).__name__}: {exc}")
        except Exception:  # the run goes on; the task is reported failed
            error = ("crash", traceback.format_exc())
        results.append((task, out, error, _clock() - t0))
    return results


def judge(task, out, error, ref, digests):
    """Outcome of one task: ok, typed_error, exit_<code>, oracle_miss,
    stat_miss, byte_mismatch or crash, plus its checks."""
    if error is not None:
        return error[0], [], error[1]
    if task.argv is not None:
        digest = cli_digest(out)
        key = json.dumps(task.argv)
        seen = digests.setdefault(key, digest)
        if task.repeat:
            from workloads import run_cli
            again = cli_digest(run_cli(task.argv))
        else:
            again = digest
        if seen != digest or again != digest:
            return "byte_mismatch", [], "CLI output differs between runs"
        if out.code != 0:
            return f"exit_{out.code}", [], out.stderr.strip()
    try:
        checks = task.check(out, ref)
    except Exception:  # an output the check cannot read is a wrong output
        return "oracle_miss", [], traceback.format_exc()
    if any(not c.ok for c in checks if c.kind != "stat"):
        return "oracle_miss", checks, ""
    if any(not c.ok for c in checks):
        return "stat_miss", checks, ""
    return "ok", checks, ""


def main(argv):
    workload, seed, seconds, trace, mode = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    t0 = _clock()
    import greenball.cli  # noqa: F401  (the import is what set-up times)
    import_s = _clock() - t0
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    inputs = workloads.build(workload, seed)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    import oracles
    oracles.self_check()
    ref = workloads.references(workload)

    passes = []
    start = _clock()
    while True:
        t_pass = _clock()
        results = run_pass(inputs.tasks, ref, tracer)
        passes.append((_clock() - t_pass, results))
        elapsed = _clock() - start
        if elapsed + passes[-1][0] > seconds:
            break
    wall = statistics.median(p for p, _ in passes)
    if tracer is not None:
        tracer.uninstall()

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    digest_path = os.path.join(out_dir, "digests.json")
    store = {}
    if os.path.exists(digest_path):
        with open(digest_path) as fh:
            store = json.load(fh)
    # same code and same BLAS thread count must give the same bytes
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    digests = store.setdefault(f"{source_fingerprint(root)}:{threads}", {})

    tasks = []
    exact_errs = []
    for _, results in passes:
        for task, out, error, dt in results:
            outcome, checks, note = judge(task, out, error, ref, digests)
            exact_errs += [c.value for c in checks if c.kind == "exact"]
            tasks.append({"task": task.name, "outcome": outcome,
                          "seconds": dt, "note": note[-2000:],
                          "checks": [c.__dict__ for c in checks]})
    with open(digest_path, "w") as fh:
        json.dump(store, fh, indent=1)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "env": environment(root, inputs),
        "import_s": import_s,
        "wall_s": wall,
        "pass_s": [p for p, _ in passes],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # no exact check could run (every such task failed): no digits
        "digits_min": min((oracles.digits(e) for e in exact_errs),
                          default=0.0),
        "tasks": tasks,
    }
    if tracer is not None:
        result["layers"] = dict(tracer.summary())
        result["missing_targets"] = tracer.missing
        result["top_level_busy_s"] = tracer.top_level_busy() / len(passes)
        spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.records(), fh)
        result["spans_file"] = os.path.relpath(spans_path, root)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
