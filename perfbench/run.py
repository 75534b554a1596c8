"""Benchmark of locstruct: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload blocks_ls --seed 0 --seconds 35 --trace 0

Run from the root of a locstruct checkout; the package is imported from
``src/`` there, nothing is installed. The workload's inputs come from
``--seed``. The run repeats identical iterations, each call waiting for the
previous one, for ``--seconds`` (at least two iterations; none starts that
the longest so far says would end later), then checks the outputs and prints a table of every metric with its unit, and as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics, the
layer shares of the pass time and the tracing overhead; its spans go to
``perfbench/out/``. Timings are divided by the host slowdown measured
around them (see ``hostspeed.py``); the raw ones go to the result file.
The default seed is 0; seed 7919 is held out, for re-checking a claim on a
seed that was not used while making it.
"""

import os
import sys
import time

# BLAS threads are fixed here, before numpy loads, so both sides of every
# comparison run the same setting whatever the caller's environment says.
# One thread: the cores are shared, and small factorisations at two threads
# were bimodal across processes (see README.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import select
import shutil
import statistics
import subprocess
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_REPEATS = 15
# Seconds between host-speed measurements inside a timed call. The longest
# calls (a blocks_ls cell, about 3 s) meet several host speeds; measured only
# before and after, their normalised times spread by 10% across runs.
SAMPLE_EVERY = 0.25
MIN_ITERATIONS = 2

END_TO_END = {"setup_s": "s", "pass_s": "s", "fit_s": "s", "decode_per_s": "1/s",
              "test_error": "loss", "out_match_frac": "frac", "op_ok_frac": "frac",
              "peak_rss_mb": "MB"}


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _os_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading
        return threading.active_count()


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:  # the config layout is not a stable interface
            return "unknown"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": nproc, "cpu": cpu, "blas_numpy": blas(numpy), "blas_scipy": blas(scipy),
            "blas_threads": BLAS_THREADS, "os_threads": _os_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _median(values):
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locstruct" / "__init__.py").is_file():
        return _fail(f"no locstruct sources at {SRC}; run from a locstruct checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import workloads
    except ImportError as e:
        return _fail(f"cannot import the benchmark's dependencies: {e}")

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        return _fail(f"{BLAS_THREADS} BLAS threads exceed nproc={nproc}", 3)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# A fresh interpreter that sets the workload up and exits: the time from its
# start to its exit is the set-up a user pays before the first call.
_SETUP_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}]({seed!r}, Path({workdir!r})).setup()
"""


def _time_setups(args, workdir: Path, hostspeed) -> list:
    """Laps of SETUP_REPEATS set-ups, each in its own process. Process start
    is loading and linking as much as interpreting, so the slowdown weighs
    both kernels equally."""
    watch = hostspeed.Watch(0.5)
    laps = []
    for k in range(SETUP_REPEATS):
        code = _SETUP_CHILD.format(paths=[str(SRC), str(HERE)], name=args.workload,
                                   seed=args.seed, workdir=str(workdir / f"setup-{k}"))
        with watch.lap() as lap:
            _run_child([sys.executable, "-c", code], timeout=120)
        laps.append(lap)
    return laps


def _run_child(cmd: list, timeout: float) -> None:
    """Run ``cmd`` and return the moment it exits. ``Popen.wait`` with a
    timeout polls with sleeps of up to 50 ms, which put set-up times on a
    50 ms grid; a pidfd becomes readable exactly when the child exits."""
    proc = subprocess.Popen(cmd)
    fd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([fd], [], [], timeout)[0]
    finally:
        os.close(fd)
    if not exited:
        proc.kill()
        proc.wait()
        raise subprocess.TimeoutExpired(cmd, timeout)
    if proc.wait() != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def _run(args, nproc: int, workdir: Path) -> int:
    import check
    import hostspeed
    import spans
    import workloads
    from locstruct import DegenerateDecodeWarning

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, workdir)
    wl.setup()
    setup_laps = _time_setups(args, workdir, hostspeed)

    watch = hostspeed.Watch(cls.python_share, SAMPLE_EVERY)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        try:  # a missing hook point would otherwise read as a zero-cost layer
            tracer.install()
        except LookupError as e:
            return _fail(str(e), 1)
        tracer.uninstall()
    done = []  # (traced, Iteration, layer metrics or None)
    t_loop = time.perf_counter()
    longest = 0.0  # the longest iteration so far: start none that would overrun
    while (len(done) < MIN_ITERATIONS
           or time.perf_counter() - t_loop + longest <= args.seconds):
        t_iter = time.perf_counter()
        traced = bool(args.trace) and len(done) % 2 == 1
        tr = tracer if traced else spans.NULL
        # measurements inside a call would land in the spans' self times
        watch.sample_every = 0.0 if traced else SAMPLE_EVERY
        it = workloads.Iteration()
        root = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if traced:
                    tracer.pass_id = len(done)
                    tracer.install()
                try:
                    with tr.span("pass") as root:
                        wl.run_pass(tr, it, watch)
                    it.passed = True
                finally:
                    if traced:
                        tracer.uninstall()
                wl.run_probes(it, watch)
            except Exception:  # count the failure, keep measuring
                it.op(False)
                traceback.print_exc()
        it.det["test_error"] = [it.test_error]
        layers = None
        if traced and it.passed:
            layers = spans.pass_metrics(tracer.spans, root, it.pass_lap())
            layers["decoder.degenerate_warnings"] = sum(
                issubclass(w.category, DegenerateDecodeWarning) for w in caught)
            layers["bench.nan_rows"] = it.nan_rows
        done.append((traced, it, layers))
        longest = max(longest, time.perf_counter() - t_iter)

    if _os_threads() > nproc:
        return _fail(f"the workload started {_os_threads()} threads, nproc={nproc}", 3)
    env = _environment(nproc)

    iters = [it for _, it, _ in done]
    tally = check.Tally()
    ref = check.load_reference(args.workload, args.seed)
    if ref is not None:
        check.against_reference(iters[0].ref, ref, tally)
    first = {**iters[0].ref, **iters[0].det}
    for it in iters[1:]:
        check.across_passes(first, {**it.ref, **it.det}, tally)
    for it in iters:
        for ok, note in it.agree:
            tally.item(ok, note)
    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)

    def timings(normalise: bool) -> dict:
        """Median timings, divided by the host slowdown when ``normalise``."""
        t = (lambda lap: lap.normalised) if normalise else (lambda lap: lap.seconds)
        passes = lambda traced: [t(it.pass_lap()) for tr, it, _ in done
                                 if tr == traced and it.passed]
        return {
            "setup_s": _median([t(lap) for lap in setup_laps]),
            "pass_s": _median(passes(False)),
            "traced_pass_s": _median(passes(True)),
            "fit_s": _median([t(lap) for it in iters for lap in it.fit]),
            "decode_per_s": _median([n / t(lap) for it in iters for n, lap in it.decode]),
        }

    raw = timings(normalise=False)
    e2e = {**timings(normalise=True),
           "test_error": iters[0].test_error,
           "out_match_frac": 1.0 - tally.missed / max(tally.checked, 1),
           "op_ok_frac": 1.0 - failed / max(attempted, 1),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    samples = {"setup_s": len(setup_laps), "pass_s": sum(not t for t, _, _ in done),
               "fit_s": sum(len(it.fit) for it in iters),
               "decode_per_s": sum(len(it.decode) for it in iters)}
    slowdowns = [it.pass_lap().slowdown for it in iters if it.passed]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(done)}  measured {time.perf_counter() - t_loop:.1f} s  "
          f"median host slowdown {_median(slowdowns):.3f}")
    print("env " + json.dumps(env))
    if ref is None:
        print(f"note: no reference outputs recorded for seed {args.seed}; "
              "outputs were checked across passes only")
    for note in tally.notes[:20]:
        print(f"mismatch: {note}")
    print(f"  {'metric':<16} {'value':>14} {'unit':<6} {'raw':>12}")
    for name, unit in END_TO_END.items():
        n = samples.get(name)
        extra = f" {raw[name]:>12.6g}  median of {n}" if n else ""
        print(f"  {name:<16} {e2e[name]:>14.6g} {unit:<6}{extra}")
    print(f"  {'out_mismatch':<16} {tally.missed:>14d} count   of {tally.checked} checked")
    print(f"  {'fail_frac':<16} {failed / max(attempted, 1):>14.6g} frac    "
          f"{failed} failed of {attempted} attempted")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "end_to_end": e2e, "raw": raw, "samples": samples,
              "slowdowns": slowdowns, "checked": tally.checked,
              "mismatches": tally.notes, "attempted": attempted, "failed": failed,
              "reference": ref is not None}
    if args.trace:
        per_pass = [layers for traced, _, layers in done if traced and layers]
        if not per_pass:
            return _fail("no traced pass completed", 1)
        per_layer = spans.median_metrics(per_pass)
        per_layer.update({"trace.traced_pass_s": e2e["traced_pass_s"],
                          "trace.untraced_pass_s": e2e["pass_s"],
                          "trace.overhead_s": e2e["traced_pass_s"] - e2e["pass_s"]})
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in spans.PER_LAYER.items()}
        print("layer shares of the traced pass time (self time):")
        for layer in spans.LAYERS:
            print(f"  {layer:<10} {per_layer['share.' + layer]:>8.3f}")
        for name, unit in spans.PER_LAYER.items():
            print(f"  {name:<36} {per_layer[name]:>14.6g} {unit}")
        result["per_layer"] = per_layer
        result["spans"] = tracer.dump()
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, default=float))
    print(json.dumps({"correct": tally.missed == 0 and tally.checked > 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
