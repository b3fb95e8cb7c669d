"""wavekit benchmark: one workload per invocation, one caller thread, closed loop.

    python3 bench/run.py --workload moments-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; wavekit is imported from ``src/``.
The default seed is 1; seed 2 is held out to confirm later claims.

``--trace 0`` times the workload: the median of several fresh-process
set-ups (``setup_s``), then items back to back for ``--seconds``, each
checked against its gate; the first ``verify_items`` items of the workload
are always completed, and ``attempted``/``failed`` count those.
``--trace 1`` runs a fixed prefix of the same items twice untraced and
twice under the tracer, and prints the per-layer metrics. It fails the run
if the traced verdicts or printed residuals differ from the untraced ones,
or if any count differs between the two traced passes.

Report lines go to stdout; the last line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record, with provenance
and spans, is written under ``bench/out/``, one file per run. The benchmark
pins no CPU, drops no cache and changes no machine setting
(``"isolation": "none"``).
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
# Items generated per timed run, more than a run gets through at this
# commit; a faster program cycles through them again.
POOL = {"moments-sweep": 5000, "evolve-grid": 1000, "cosmo-trace": 100}
P90_MIN_SAMPLES = 100


def _use_checkout_source():
    if not (SRC / "wavekit" / "__init__.py").is_file():
        sys.exit("error: %s has no wavekit package; run from a wavekit source checkout" % SRC)
    sys.path.insert(0, str(SRC))


def _setup_probe(workload, seed):
    """Time one cold set-up in this fresh process: import wavekit, generate
    the seeded inputs, run one warm-up item."""
    start = time.perf_counter()
    import wavekit  # noqa: F401  (the import is what is being timed)
    import workloads

    wl = workloads.WORKLOADS[workload]
    wl.generate(seed, POOL[workload])
    wl.run(wl.warmup_item())
    print(repr(time.perf_counter() - start))


def _setup_seconds(workload, seed, repeats):
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit("error: set-up probe failed:\n" + proc.stderr)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def _provenance(seed):
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": threads},
        "seed": seed,
        "isolation": "none",
    }


def _run_items(wl, items, deadline=None, at_least=0, tracer=None):
    """Run the items once in order, or cycle through them until ``deadline``
    seconds if given, but never stop before ``at_least`` items are done.
    Returns the per-item records and the loop's wall time; each record
    holds the item's latency and its end, in seconds from the loop's start."""
    wl.reset()
    records = []
    start = time.perf_counter()
    for p in items if deadline is None else itertools.cycle(items):
        if deadline is not None and len(records) >= at_least and time.perf_counter() - start >= deadline:
            break
        if tracer is not None:
            tracer.item = p["id"]
        t0 = time.perf_counter()
        try:
            checks, error = wl.run(p), None
        except Exception as exc:  # a raising item is a failed item, not a crash
            checks, error = [], "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        records.append({"item": p, "seconds": t1 - t0, "end": t1 - start, "checks": checks, "error": error})
    return records, time.perf_counter() - start


def _done_by(records, seconds):
    """Items finished ``seconds`` into the loop, with the item in flight then
    counted by the share of it done, so that slow items do not make the
    count jump by whole items."""
    done = 0.0
    for r in records:
        if r["end"] <= seconds:
            done += 1.0
        else:
            done += max(0.0, (seconds - (r["end"] - r["seconds"])) / r["seconds"])
            break
    return done


def _failures(wl, records):
    """(record, check or None, known-defect label or None) for every failed check."""
    out = []
    for rec in records:
        if rec["error"] is not None:
            out.append((rec, None, None))
        for check in rec["checks"]:
            if not check[1] <= check[2]:
                out.append((rec, check, wl.known_defect(rec["item"], check)))
    return out


def _verdicts(records):
    """What a run prints about its items: residuals and pass/fail per check."""
    return [(r["item"]["id"], r["error"], [(c[0], repr(c[1]), c[1] <= c[2], c[3]) for c in r["checks"]])
            for r in records]


def _print_failures(failures):
    for rec, check, label in failures:
        p = {k: (round(v, 6) if isinstance(v, float) else v) for k, v in rec["item"].items()
             if k not in ("oracle", "id", "cls")}
        if check is None:
            print("FAIL item %d %s %s error=%s known=none" % (rec["item"]["id"], rec["item"]["cls"], p, rec["error"]))
        else:
            print("FAIL item %d %s %s gate=%s residual=%.3e tol=%.0e at %s known=%s"
                  % (rec["item"]["id"], rec["item"]["cls"], p, check[0], check[1], check[2], check[3],
                     "(%s)" % label if label else "none"))


def _metric_line(name, value, unit, note):
    print("%-34s %14.6g %-6s %s" % (name, value, unit, note))


def _verify_items(args, wl):
    return 1 if args.smoke else wl.verify_items


def _timed(args, wl):
    setup_repeats = 1 if args.smoke else SETUP_REPEATS
    setup_s, samples = _setup_seconds(args.workload, args.seed, setup_repeats)
    items = wl.generate(args.seed, POOL[args.workload])
    wl.run(wl.warmup_item())
    import scipy.special  # noqa: F401  (some gates use it; keep its import out of item times)

    records, wall = _run_items(wl, items, deadline=args.seconds, at_least=_verify_items(args, wl))
    n = len(records)
    # Percentiles are taken over whole cycles of the item mix, so that the
    # mix behind them does not depend on how far the run got. cosmo-trace
    # completes only one or two cycles, and its median moved by a quarter
    # with the number of items done.
    lat_ms = sorted(r["seconds"] * 1e3 for r in records[: n - n % wl.cycle or n])
    done = _done_by(records, args.seconds)
    metrics = {
        "setup_s": (setup_s, "s", "median of %d fresh-process set-ups %s" % (len(samples), ["%.4f" % s for s in samples])),
        "items_per_s": (done / args.seconds, "1/s", "%.3f items in %g s (%d run, %.3f s wall)" % (done, args.seconds, n, wall)),
        "item_ms_p50": (statistics.median(lat_ms), "ms",
                        "n=%d samples (whole cycles of %d items)" % (len(lat_ms), wl.cycle)),
    }
    if len(lat_ms) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
        metrics["item_ms_p90"] = (p90, "ms", "n=%d samples, %d beyond" % (len(lat_ms), sum(x > p90 for x in lat_ms)))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB", "ru_maxrss of this process")
    by_class = {}
    for r in records:
        by_class.setdefault(r["item"]["cls"], []).append(r["seconds"] * 1e3)
    classes = {c: {"n": len(v), "ms_p50": statistics.median(v)} for c, v in sorted(by_class.items())}
    per_item = [(r["item"]["id"], r["item"]["cls"], r["seconds"]) for r in records]
    return records, metrics, {"setup_samples_s": samples, "classes": classes, "wall_s": wall, "items": per_item}


def _traced(args, wl):
    import tracer as tracing

    items = wl.generate(args.seed, 1 if args.smoke else wl.trace_items)
    wl.run(wl.warmup_item())
    import scipy.special  # noqa: F401
    # The first untraced pass pays first-use costs; the second is the base
    # that trace.overhead divides by.
    plain, _ = _run_items(wl, items)
    _, plain_wall = _run_items(wl, items)
    passes = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            records, wall = _run_items(wl, items, tracer=tr)
        finally:
            tr.remove()
        passes.append((tr, records, wall))
    problems = []
    if any(_verdicts(records) != _verdicts(plain) for _, records, _ in passes):
        problems.append("traced verdicts or residuals differ from the untraced run")
    counts = []
    for tr, records, _ in passes:
        c = tr.count_metrics()
        for name in tracing.LAYER_METRICS:
            if name.startswith("gate."):
                gate = name.split(".")[1]
                c[name] = sum(1 for r in records if any(ch[0] == gate and not ch[1] <= ch[2] for ch in r["checks"]))
        counts.append(c)
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append("counts differ between the two traced passes: %s" % ", ".join(diff))
    tr, records, wall = passes[0]
    values = dict(tr.metrics(), **counts[0])
    values["trace.overhead"] = wall / plain_wall
    metrics = {k: (values[k], unit, "") for k, unit in tracing.LAYER_METRICS.items()}
    value, unit, _ = metrics["trace.overhead"]
    metrics["trace.overhead"] = (value, unit, "traced %.3f s / untraced %.3f s" % (wall, plain_wall))
    extra = {"absent": tr.absent, "problems": problems, "spans": tr.spans}
    return records, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("moments-sweep", "evolve-grid", "cosmo-trace"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up sample and a one-item traced run, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout_source()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    print("# wavekit benchmark workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    provenance = _provenance(args.seed)
    print("# provenance " + json.dumps(provenance, sort_keys=True))

    if args.trace:
        records, metrics, extra = _traced(args, wl)
    else:
        records, metrics, extra = _timed(args, wl)

    for name, (value, unit, note) in metrics.items():
        _metric_line(name, value, unit, note)
    failures = _failures(wl, records)
    failed_ids = {id(rec) for rec, _, _ in failures}
    unknown = [f for f in failures if f[2] is None]
    # attempted/failed count a fixed set of items, so that they repeat
    # exactly for a seed however far a run gets: the traced prefix, or the
    # first items of a timed run, which it completes even past the deadline.
    # Items run after those are gated too; their failures are listed below,
    # and an unknown one makes the run incorrect all the same.
    counted = records if args.trace else records[:_verify_items(args, wl)]
    failed = sum(id(rec) in failed_ids for rec in counted)
    print("failures %d/%d items = %.2f%% (the first %d items, counted as attempted/failed)"
          % (failed, len(counted), 100.0 * failed / len(counted), len(counted)))
    print("failures %d/%d items = %.2f%% (all items run; %d failed checks: %d known defect, %d unknown)"
          % (len(failed_ids), len(records), 100.0 * len(failed_ids) / len(records), len(failures),
             len(failures) - len(unknown), len(unknown)))
    for label in sorted({f[2] for f in failures if f[2]}):
        print("known defect (%s): %s" % (label, workloads.KNOWN_DEFECTS[label]))
    for label, text in getattr(wl, "not_drawn", {}).items():
        print("known defect not drawn (%s): %s" % (label, text))
    _print_failures(failures)
    problems = list(extra.get("problems", []))
    for name in extra.get("absent", []):
        print("absent %s" % name)
    for problem in problems:
        print("PROBLEM " + problem)
    correct = not unknown and not problems

    OUT.mkdir(exist_ok=True)
    # Every run keeps its own record: the stem ends in the first unused run index.
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    stem = next("%s-run%d" % (stem, i) for i in itertools.count(1)
                if not (OUT / ("%s-run%d.json" % (stem, i))).exists())
    record = {
        "provenance": provenance,
        "workload": args.workload,
        "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "failures": [{"item": f[0]["item"], "error": f[0]["error"], "check": f[1], "known": f[2]} for f in failures],
        "correct": correct,
        "attempted": len(counted),
        "failed": failed,
        **{k: v for k, v in extra.items() if k != "spans"},
    }
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1, default=str))
    if "spans" in extra:
        with gzip.open(OUT / (stem + "-spans.jsonl.gz"), "wt") as fh:
            fh.write('["id","name","start","end","parent","item","self_s","nested"]\n')
            for span in extra["spans"]:
                fh.write(json.dumps(span) + "\n")

    names = ("setup_s", "items_per_s", "item_ms_p50", "peak_rss_mb")
    keep = names if not args.trace else metrics
    print(json.dumps({
        "correct": correct,
        "attempted": len(counted),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keep},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
