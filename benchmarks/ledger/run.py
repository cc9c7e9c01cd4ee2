"""The GOFMM ledger: one command, every metric by name with its unit.

    python3 benchmarks/ledger/run.py --workload NAME|all [--seed S] [--seconds T]
        [--trace 0|1] [--trace-out PATH] [--out PATH] [--smoke] [--aa N]

``--trace 0`` (default) is the end-to-end pass (``path.py``, tracing off);
``--trace 1`` is the traced pass (``layers.py``) that prints the per-layer
metrics.  One process runs one workload, so ``peak_rss_mb`` is that
workload's; ``all`` and ``--aa`` start one fresh process per workload.  The
last line of standard output is the result object BENCHMARK.json describes.
"""

import time

_T0 = time.perf_counter()          # set-up is timed from here: before numpy, before repro

import argparse
import ctypes
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):      # run as a script: make the relative imports below work
    sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]
    import ledger  # noqa: F401
    __package__ = "ledger"

from . import workloads
from .stats import median, quartiles, spread

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}
#: Counts that must repeat exactly at a fixed seed (checked by --aa and the smoke test).
EXACT = ("eps2", "cg_iterations", "solvers.cg_iterations", "matrices.entry_evals_compress",
         "core.interactions.near_pairs", "core.interactions.far_pairs", "storage.store.disk_mb")
#: Set-up is repeated in fresh interpreters while that stays cheap (see README, protocol).
SETUP_SAMPLES, SETUP_PROBE_BUDGET_S = 3, 3.0


def pin_process() -> None:
    """One BLAS thread, and a glibc malloc that never trims: set before numpy loads.

    BLAS: the box has 2 vCPUs.  OpenBLAS's default of 2 threads next to the streamed engine's
    two pipeline workers or the server's batcher and the load generator is more runnable
    threads than cores, and a preempted BLAS thread keeps its partner spinning; with one
    thread hss_coarse even runs faster (README, protocol).  The engine's own threads stay.

    malloc: never give the heap back to the OS, serve arrays up to 32 MiB from it, one arena.
    With the defaults each process flips, rep by rep, between reusing freed pages and
    faulting fresh ones in, and this VM's page faults cost more than the work: fmm_fine
    compress reps read 2.1 or 2.9 s (README, protocol).  Only the script pins; importers
    (the smoke test) keep their process as it is.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        libc = ctypes.CDLL("libc.so.6")
        # M_TRIM_THRESHOLD, M_TOP_PAD, M_MMAP_THRESHOLD, M_ARENA_MAX
        for option, value in ((-1, 2**31 - 1), (-2, 256 * 2**20), (-3, 32 * 2**20), (-8, 1)):
            libc.mallopt(option, value)
    except (OSError, AttributeError):       # not glibc: measure with the platform's defaults
        pass


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [w.name for w in workloads.WORKLOADS]
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]),
                        help="scales the end-to-end pass: compress reps x seconds / run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSON)")
    parser.add_argument("--out", help="write the full report (samples, environment) here (JSON); "
                                      "with --aa, a directory for every run's report")
    parser.add_argument("--smoke", action="store_true", help="n = 512: checks names, not speed")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="two alternating sets of N runs (seeds S..S+N-1) of the same code; "
                             "fails when they disagree beyond the bounds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- environment ------------------------------------------------------------------------

def read(path: str):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def blas_threads() -> int:
    try:
        from threadpoolctl import threadpool_info
        return max((pool.get("num_threads", 1) for pool in threadpool_info()), default=1)
    except ImportError:
        return int(os.environ.get("OPENBLAS_NUM_THREADS") or os.cpu_count() or 1)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thp": read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "loadavg_at_start": os.getloadavg()[0],
        "git_commit": git_commit(),
    }


# -- one workload, in this process ----------------------------------------------------------

def scratch_root() -> Path:
    """Everything the ledger writes goes under here, inside the checkout; git ignores it."""
    root = ROOT / ".bench_scratch"
    root.mkdir(exist_ok=True)
    return root


def child(args, *extra, workload=None, seed=None, trace=None) -> subprocess.CompletedProcess:
    """This script again in a fresh interpreter, same options unless overridden."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload or args.workload,
               "--seed", str(args.seed if seed is None else seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace if trace is None else trace), *extra]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(command, capture_output=True, text=True, timeout=900)


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    while (not args.smoke and len(samples) < SETUP_SAMPLES
           and sum(samples[1:]) + samples[-1] <= SETUP_PROBE_BUDGET_S):
        probe = child(args, "--setup-probe")
        probe.check_returncode()
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def best(samples, better: str = "lower") -> float:
    """The run's value of a metric: its best sample.

    On this VM the noise is one-sided bursts (another tenant, a page fault, a
    late thread wake-up), so the best of a run's samples repeats between runs
    1.5 to 4 times better than their median does (README, protocol).
    """
    return float(min(samples) if better == "lower" else max(samples))


def show(name: str, samples, entry: dict) -> None:
    q1, q2, q3 = quartiles(samples)
    print(f"  {name:<36} {best(samples, entry.get('better', 'lower')):>13.6g} {entry.get('unit', ''):<6}"
          f" median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples)}")


def run_workload(args) -> int:
    from . import path                     # numpy + the five public names: part of set-up

    spec = workloads.BY_NAME[args.workload]
    if args.smoke:
        spec = workloads.smoke(spec)
    inputs = path.make_inputs(spec, args.seed)
    own_setup = time.perf_counter() - _T0
    if args.setup_probe:
        print(own_setup)
        return 0

    env = environment()
    scratch = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=scratch_root())
    report = {"workload": spec.name, "why": spec.why, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": env}
    try:
        if args.trace:
            from . import layers, spans

            recorder = spans.Recorder(run_id=f"{spec.name}-seed{args.seed}")
            tally = path.Tally()
            values, notes = layers.run(spec, inputs, recorder, scratch, tally, env)
            report["notes"] = notes
            report["self_seconds"] = recorder.self_seconds()
            if args.trace_out:
                recorder.write(args.trace_out)
            table, samples = PER_LAYER, {name: [v] for name, v in values.items() if v is not None}
            for name in values.keys() - table.keys():
                print(f"ledger: {name} is not in BENCHMARK.json", file=sys.stderr)
        else:
            tally = path.run(spec, inputs, args.seconds / CONTRACT["run_seconds"], scratch)
            samples = dict(tally.samples)
            samples["setup_s"] = setup_samples(args, own_setup)
            table = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {spec.name}  seed {args.seed}  trace {args.trace}  "
          f"({time.perf_counter() - _T0:.1f} s)\nenvironment {json.dumps(env)}")
    metrics = {}
    for name, entry in table.items():
        if name in samples:
            show(name, samples[name], entry)
            metrics[name] = {"value": best(samples[name], entry["better"]), "unit": entry["unit"]}
        else:       # a failed probe: null in the table, counted in ledger.probe_errors, and 0 in
            print(f"  {name:<36} {'null':>14} {entry['unit']}")     # the result line, which takes
            metrics[name] = {"value": 0.0, "unit": entry["unit"]}   # numbers only
    for name in sorted(samples.keys() - table.keys()):
        show(name, samples[name], {})
    print(f"  ops_attempted {tally.attempted}  ops_failed {tally.failed}")
    for failure in tally.failures:          # on both streams: a harness may keep only one
        print(f"  FAILED: {failure}")
        print(f"ledger: {spec.name} seed {args.seed} trace {args.trace} FAILED: {failure}",
              file=sys.stderr)
    if args.trace and report.get("notes"):
        print("notes " + json.dumps(report["notes"]))

    missing = [name for name in END_TO_END if not args.trace and name not in samples]
    if missing:
        print(f"ledger: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    if args.out:
        report.update(result, samples=samples, exact={k: samples[k] for k in EXACT if k in samples},
                      failures=tally.failures, claim=None)
        Path(args.out).write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


# -- several workloads: one fresh process each ------------------------------------------------

def run_all(args) -> int:
    status = 0
    for spec in workloads.WORKLOADS:
        done = child(args, workload=spec.name)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
    return status


def run_aa(args) -> int:
    """A/A: two sets (A, B) of N runs of the same code, run alternately, seeds S..S+N-1.

    This is the acceptance check for the bounds in BENCHMARK.json: within a set,
    each metric's interquartile spread must stay inside its bound (else the
    pairing is ``unresolved``); between sets, the medians must agree within it.
    Counts must repeat exactly between the two runs of a seed.
    """
    names = [w.name for w in workloads.WORKLOADS] if args.workload == "all" else [args.workload]
    values = {}                             # (set, workload, metric) -> one value per seed
    exact = {}                              # (workload, seed, metric) -> values seen
    failed_ops = 0
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root()) as tmp:
        for i in range(args.aa):
            seed = args.seed + i
            traces = (0, 1) if i == 0 else (0,)     # one traced pair: the exact counts
            for label, name, trace in itertools.product("AB" if i % 2 == 0 else "BA", names, traces):
                out = os.path.join(args.out or tmp, f"{name}-seed{seed}-{label}-trace{trace}.json")
                done = child(args, "--out", out, workload=name, seed=seed, trace=trace)
                if done.returncode:
                    sys.stderr.write(done.stderr)
                    return done.returncode
                report = json.loads(Path(out).read_text())
                failed_ops += report["failed"]
                for failure in report["failures"]:
                    print(f"{name} seed {seed}: FAILED {failure}")
                for metric, seen in report["exact"].items():
                    exact.setdefault((name, seed, metric), set()).update(seen)
                if trace == 0:
                    for metric, entry in report["metrics"].items():
                        values.setdefault((label, name, metric), []).append(entry["value"])
                print(f"seed {seed} set {label} {name} trace {trace}", file=sys.stderr)
    return aa_verdicts(names, values, exact, failed_ops)


def aa_verdicts(names, values, exact, failed_ops: int) -> int:
    """Print the A/A table; non-zero when two sets disagree, a count moved or an op failed."""
    status = 0
    print(f"{'workload':<12} {'metric':<20} {'median A':>11} {'q1 A':>11} {'q3 A':>11} "
          f"{'median B':>11} {'B vs A':>7} {'spread A':>8} {'spread B':>8} {'bound':>5}  verdict")
    for name in names:
        for metric, entry in END_TO_END.items():
            a, b = values[("A", name, metric)], values[("B", name, metric)]
            q1, q2, q3 = quartiles(a)
            worse = (median(b) - q2) / q2 * (1 if entry["better"] == "lower" else -1)
            if metric != "setup_s" and max(spread(a), spread(b)) > entry["bound"]:
                verdict = "unresolved"      # spread wider than the bound: never "unchanged"
            elif abs(worse) > entry["bound"]:
                verdict, status = "DISAGREE", 1
            else:
                verdict = "agree"
            print(f"{name:<12} {metric:<20} {q2:>11.5g} {q1:>11.5g} {q3:>11.5g} {median(b):>11.5g} "
                  f"{worse:>+7.1%} {spread(a):>8.1%} {spread(b):>8.1%} {entry['bound']:>5}  {verdict}")
    for (name, seed, metric), seen in sorted(exact.items()):
        if len(seen) > 1:
            print(f"{name} seed {seed} {metric}: NOT an exact repeat: {sorted(seen)}")
            status = 1
    print(f"exact-repeat counts checked: {len(exact)}; failed operations: {failed_ops}")
    return status or (1 if failed_ops else 0)


def main(argv=None) -> int:
    args = parse(argv)
    if args.aa:
        return run_aa(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    pin_process()
    sys.exit(main())
