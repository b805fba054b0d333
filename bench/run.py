"""Benchmark for the esfl command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the ops of one workload (see ``workloads.py``) in this process, through
``esfl.cli.main(argv)``, for ``S`` seconds, and checks each op's report
against the reference recorded for it. Reports go to a temporary directory
inside the checkout, removed on exit. The esfl sources are imported from
``src/`` beside this directory; without them the benchmark exits 1.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median, over several fresh interpreters, of ``import esfl.cli``
  plus loading the vgg19 profile: what every command pays before work.
* ``op_s_p50``, ``op_s_tail``: median op seconds, and the op seconds with
  ten ops beyond it (the percentile and op count are printed beside it).
* ``work_per_s``: work units per second of op time. A unit is a user-round
  on sim-*, a user planned on plan-large and a split SGD step on toy-train,
  all counted from the op's configuration.
* ``peak_rss_mb``: peak resident memory of this process.

The times above are host-speed normalized (see ``calibration.py``): an op's
seconds are scaled by the mean of the calibrations run just before and
after it, and each set-up interpreter runs the calibration itself right
after its import. On a quiet host the factor is about 1. The raw wall-clock
figures are printed too, and the ``meta`` line records the median
calibration and the host's CPU steal for each run.

``--trace 1`` runs every op twice, untraced and traced, in alternating
order, and prints per-layer metrics (see ``tracer.py``), averaged per traced
op, plus ``trace_overhead`` = traced / untraced op seconds - 1.

Ops that raise or exit nonzero are counted in ``failed``; any op whose
outputs disagree with the reference makes ``correct`` false. The last line
of stdout is the result as one JSON object.
"""

import os
import sys

# One BLAS thread, here and in the set-up interpreters. Must precede the
# first numpy import.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from calibration import CAL_REF_S, calibrate  # noqa: E402
from tracer import LAYERS, ROOT as CLI, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 12         # timed set-up interpreters per run, after one warm-up
MIN_OPS = 21            # untraced, so that op_s_tail lies above the median
HARD_STOP_S = 150.0     # stop starting ops after this, whatever --seconds says
TAIL_BEYOND = 10

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import esfl.cli
import esfl
esfl.load_builtin("vgg19")
seconds = time.perf_counter() - t0
sys.dont_write_bytecode = True
from calibration import calibrate
print(seconds, min(calibrate(), calibrate()))
"""


def import_esfl():
    """Import esfl from this checkout's sources, never from elsewhere."""
    package = SRC / "esfl"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no esfl sources at {package}")
    sys.path.insert(0, str(SRC))
    import esfl
    import esfl.cli
    if Path(esfl.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: esfl imported from {esfl.__file__}, not {package}")
    return esfl


# ---------------------------------------------------------------------------
# run metadata

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "esfl").rglob("*")):
        if path.suffix in (".py", ".csv"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _steal_ticks() -> int | None:
    """Host-wide CPU steal from /proc/stat, in clock ticks (read only)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def metadata() -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": BLAS_ENV,
        "host": "shared machine: other tenants add wall-time noise and CPU steal",
    }


# ---------------------------------------------------------------------------
# measuring

def measure_setup() -> list[tuple[float, float]]:
    """(seconds, calibration) per set-up interpreter, after a warm-up one.

    The interpreters may cache esfl's bytecode, as an installed package has
    it; the warm-up one writes the cache.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    runs = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, cal = done.stdout.split()[-2:]
        runs.append((float(seconds), float(cal)))
    return runs[1:]


@dataclass(frozen=True)
class Op:
    """Outcome of one CLI invocation."""

    wall: float
    cpu: float
    ok: bool
    mismatched: list[str]
    report_bytes: int
    cal: float = CAL_REF_S   # calibration seconds around the op

    @property
    def norm(self) -> float:
        return self.wall * CAL_REF_S / self.cal


def run_op(workload, k: int, main, in_dir: Path, out_dir: Path, reference) -> Op:
    """Run pool op k through ``main`` and check its report (untimed)."""
    report = out_dir / f"{workload.report_stem}.json"
    table = out_dir / f"{workload.report_stem}.txt"
    for path in (report, table):
        path.unlink(missing_ok=True)
    argv = workload.argv(k, in_dir, out_dir)
    gc.collect()
    sink = io.StringIO()
    t0, c0 = perf_counter(), process_time()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = main(argv)
    except Exception:   # a crash is a failed op; keep measuring the rest
        code = None
        traceback.print_exc(file=sys.stderr)
    wall, cpu = perf_counter() - t0, process_time() - c0
    ok = code == 0
    if not ok:
        print(f"bench: op {k} {argv} exited {code}: {sink.getvalue()[-500:]}",
              file=sys.stderr)

    try:
        values = workload.extract(json.loads(report.read_text(encoding="utf-8")))
        mismatched = workloads.mismatches(workload, k, values, reference)
        size = report.stat().st_size + table.stat().st_size
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        mismatched, size = [f"report unreadable: {exc!r}"], 0
    if mismatched:
        print(f"bench: op {k} {argv} disagrees with the reference on {mismatched}",
              file=sys.stderr)
    return Op(wall, cpu, ok, mismatched, size)


def run_ops(workload, seed: int, seconds: float, esfl, tracer=None):
    """Warm-up op, then ops until ``seconds`` pass: (warm-up, ops, properties).

    With a tracer, every op runs untraced and traced, alternating which goes
    first; the returned list then holds (untraced, traced) pairs.
    """
    reference = workloads.load_reference(workload)
    sequence = workload.op_sequence(seed)
    props = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        in_dir, out_dir = Path(tmp) / "in", Path(tmp) / "out"
        in_dir.mkdir()
        if workload.prepare is not None:
            per_op = [workload.prepare(k, in_dir) for k in range(workload.pool_size)]
            props = {key: statistics.fmean(p[key] for p in per_op) for key in per_op[0]}
            props["min_feasible_cuts"] = min(p["min_feasible_cuts"] for p in per_op)

        def one(k, traced):
            if not traced:
                return run_op(workload, k, esfl.cli.main, in_dir, out_dir, reference)
            with tracer:
                return run_op(workload, k, tracer.main, in_dir, out_dir, reference)

        warmup = [one(next(sequence), False)]
        ops = []
        min_ops = MIN_OPS if tracer is None else 1
        before = calibrate()
        start = perf_counter()
        # whole blocks only: any `block` consecutive ops hold each preset once
        while perf_counter() - start < HARD_STOP_S and (
            perf_counter() - start < seconds or len(ops) < min_ops
            or len(ops) % workload.block
        ):
            k = next(sequence)
            if tracer is None:
                op = one(k, False)
                after = calibrate()
                ops.append(replace(op, cal=(before + after) / 2))
                before = after
            else:
                first = len(ops) % 2 == 1    # traced first on odd pairs
                a, b = one(k, first), one(k, not first)
                ops.append((b, a) if first else (a, b))
    return warmup, ops, props


# ---------------------------------------------------------------------------
# metrics

def _times(workload, ops: list[Op], setup: list[float], key) -> dict:
    walls = sorted(key(op) for op in ops)
    n = len(walls)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "op_s_tail": (walls[n - 1 - min(TAIL_BEYOND, n - 1)], "s"),
        "work_per_s": (n * workload.work_per_op / sum(walls), "1/s"),
    }


def end_to_end(workload, ops: list[Op], setup: list[tuple[float, float]]):
    """(normalized metrics, raw wall-clock metrics, tail note)."""
    metrics = _times(workload, ops, [t * CAL_REF_S / c for t, c in setup],
                     lambda op: op.norm)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = _times(workload, ops, [t for t, _ in setup], lambda op: op.wall)
    n = len(ops)
    beyond = min(TAIL_BEYOND, n - 1)
    note = f"op_s_tail is p{100.0 * (n - beyond) / n:.1f} of {n} timed ops ({beyond} beyond it)"
    return metrics, raw, note


def per_layer(tracer, pairs: list[tuple[Op, Op]]) -> dict:
    n = len(pairs)
    metrics = {}
    for name, (calls, self_s) in tracer.stats.items():
        if name != CLI:
            metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    metrics["cli.report_bytes"] = (statistics.fmean(t.report_bytes for _, t in pairs), "B")
    alternate_calls = tracer.stats["allocation.alternate"][0]
    metrics["allocation.passes"] = (tracer.passes / n, "count")
    metrics["allocation.passes_per_call"] = (
        tracer.passes / alternate_calls if alternate_calls else 0.0, "count")
    metrics["allocation.improving_pass_ratio"] = (
        tracer.improving_passes / tracer.passes if tracer.passes else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer] / n, "count")
    untraced = sum(u.wall for u, _ in pairs)
    traced = sum(t.wall for _, t in pairs)
    metrics["traced_op_s"] = (traced / n, "s")
    metrics["trace_overhead"] = (traced / untraced - 1.0, "ratio")
    return metrics


def shares(metrics: dict) -> list[str]:
    wall = metrics["traced_op_s"][0]
    rows = sorted(((v / wall, k[:-len(".self_s")]) for k, (v, _) in metrics.items()
                   if k.endswith(".self_s")), reverse=True)
    return [f"  {share:7.2%}  {name}" for share, name in rows if share >= 0.0005]


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    esfl = import_esfl()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    meta = metadata()
    steal0 = _steal_ticks()
    setup = [] if args.trace else measure_setup()
    tracer = Tracer() if args.trace else None
    warmup, ops, props = run_ops(workload, args.seed, args.seconds, esfl, tracer)
    steal1 = _steal_ticks()
    if steal0 is not None and steal1 is not None:
        meta["cpu_steal_s"] = (steal1 - steal0) / os.sysconf("SC_CLK_TCK")

    runs = warmup + ([op for pair in ops for op in pair] if tracer else ops)
    timed = [t for _, t in ops] if tracer else ops
    meta["op_wall_s"] = sum(op.wall for op in timed)
    meta["op_cpu_s"] = sum(op.cpu for op in timed)
    failed = sum(not op.ok for op in runs)
    mismatched = sum(bool(op.mismatched) for op in runs)

    if tracer:
        metrics = per_layer(tracer, ops)
    else:
        metrics, raw, note = end_to_end(workload, ops, setup)
        meta["calibration_s_median"] = statistics.median(op.cal for op in ops)

    print("meta " + json.dumps(meta, sort_keys=True))
    if tracer:
        if tracer.absent:
            print("absent sites (metrics read 0): " + ", ".join(tracer.absent))
        print(f"self-time shares of traced op wall ({len(ops)} traced ops):")
        print("\n".join(shares(metrics)))
    else:
        print(note)
        print(f"{workload.work_metric} = {metrics['work_per_s'][0]!r} 1/s (work_per_s)")
        for name, (value, unit) in raw.items():
            print(f"raw_{name} = {value!r} {unit} (wall clock, not normalized)")
    if props:
        print("properties " + json.dumps(props, sort_keys=True))
    print(f"failed_ops = {failed / len(runs)!r} ratio ({failed} of {len(runs)} ops)")
    print(f"output_mismatches = {mismatched} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    print(json.dumps({
        "correct": failed == 0 and mismatched == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
