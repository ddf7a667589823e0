"""Benchmark harness for quditwalk.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (finite_t, limit_law, large_j or cli; see README.md)
against the quditwalk source in this checkout's ``src/``.  Load model: a
closed loop with one client -- one process runs the jobs one after another,
and the cli workload runs one subprocess at a time; the harness starts no
threads.

A run builds the inputs from the seed, runs one untimed warm-up pass (not
for cli), then repeats timed passes for about ``--seconds``; after each timed
pass it times set-up twice in fresh interpreters.  ``wall_s`` sums each
job's median pass; ``setup_s`` is the median probe.  Every job's output is
checked by an oracle on every pass.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object; the run's full record
(machine, seed, failures, spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "quditwalk" / "__init__.py").is_file():
    sys.exit("perfbench: no quditwalk source at src/quditwalk in this checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up probes run between the timed passes, so that a run's median probe
# samples the same stretch of time as its passes do.
PROBES_PER_PASS = 2
IMPORT_PROBES = 5
LAYERS = ("coin", "walk", "density", "analysis", "cli")
# density functions that evaluate the channel weight on quadrature or grid points
POINT_CALLS = {"continuous_density", "limit_moment", "delta_mass", "limit_bin_masses"}


@dataclass
class Record:
    job: str
    failures: list
    measures: dict
    raised: bool


def run_pass(wl, tracer) -> tuple[dict, list[Record]]:
    """Run every job once; returns each job's time (its oracle excluded)
    and one record per job."""
    times = {}
    records = []
    for job in wl.jobs:
        t0 = time.perf_counter()
        try:
            out = tracer.job(job.name, job.run)
        except Exception:  # a job that raises is counted as failed; the run goes on
            times[job.name] = time.perf_counter() - t0
            records.append(Record(job.name, [traceback.format_exc(limit=4)], {}, True))
            continue
        times[job.name] = time.perf_counter() - t0
        oracle = workloads.Oracle()
        try:
            job.check(out, oracle)
        except Exception:  # an output the oracle cannot read is a failed job
            oracle.failures.append("oracle raised: " + traceback.format_exc(limit=4))
        records.append(Record(job.name, oracle.failures, oracle.measures, False))
    return times, records


def typical_pass(passes: list[dict]) -> float:
    """One workload run: the sum over jobs of each job's median time.  The
    box's speed drifts by tens of percent over seconds; a per-job median
    drops a job caught in a slow spell where a per-pass median cannot."""
    return sum(statistics.median(p[job] for p in passes) for job in passes[0])


def pass_measures(records) -> dict:
    keys = sorted({k for r in records for k in r.measures})
    out = {}
    for key in keys:
        vals = [r.measures[key] for r in records if key in r.measures]
        if key in workloads.SUMMED:
            out[key] = sum(vals)
        elif key in workloads.AVERAGED:
            out[key] = sum(vals) / len(vals)
        else:
            out[key] = max(vals)
    return out


def layer_stats(trace_spans) -> dict:
    """Self time and call count per layer, plus the sub-layer splits the
    per-layer metrics name."""
    own = spans.self_times(trace_spans)
    st = {f"{layer}.busy_s": 0.0 for layer in (*LAYERS, "harness")}
    st.update({f"{layer}.calls": 0 for layer in LAYERS})
    for key in ("wm_calls", "wm_busy_s", "wm_offsupport_calls", "wm_offsupport_busy_s",
                "bins_busy_s", "point_busy_s", "evolve_busy_s"):
        st[key] = 0
    for s in trace_spans:
        t = own[s.sid]
        st[f"{s.layer}.busy_s"] += t
        if s.layer == "harness":
            continue
        st[f"{s.layer}.calls"] += 1
        fn = s.name.split(".", 1)[1]
        if fn.startswith("weight_matrix"):
            st["wm_calls"] += 1
            st["wm_busy_s"] += t
            if s.tag == "offsupport":
                st["wm_offsupport_calls"] += 1
                st["wm_offsupport_busy_s"] += t
        if fn == "limit_bin_masses":
            st["bins_busy_s"] += t
        if s.layer == "density" and fn in POINT_CALLS:
            st["point_busy_s"] += t
        if fn == "evolve":
            st["evolve_busy_s"] += t
    return st


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(counts, stats, measures, import_s, overhead_s) -> dict:
    def med(key):
        return statistics.median(s[key] for s in stats)

    total = sum(med(f"{layer}.busy_s") for layer in (*LAYERS, "harness"))
    first = stats[0]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = first[f"{layer}.calls"]
        m[f"{layer}.busy_s"] = med(f"{layer}.busy_s")
        m[f"{layer}.self_share"] = _ratio(med(f"{layer}.busy_s"), total)
    m["harness.busy_s"] = med("harness.busy_s")
    m["coin.max_dim"] = counts.get("coin.max_dim", 0)
    for key in ("site_updates", "flops_computed", "bytes_computed", "peak_field_mib"):
        m[f"walk.{key}"] = counts.get(f"walk.{key}", 0)
    m["walk.site_updates_per_s"] = _ratio(m["walk.site_updates"], med("evolve_busy_s"))
    m["walk.norm_drift"] = measures.get("walk.norm_drift", 0.0)
    for key in ("points", "pair_terms", "mass_passes"):
        m[f"density.{key}"] = counts.get(f"density.{key}", 0)
    m["density.points_per_s"] = _ratio(m["density.points"], med("point_busy_s"))
    m["density.slice_yield"] = _ratio(
        counts.get("density.slices_nonempty", 0), counts.get("density.slices_total", 0)
    )
    m["density.mass_err"] = measures.get("density.mass_err", 0.0)
    m["density.wm_calls"] = first["wm_calls"]
    m["density.wm_busy_s"] = med("wm_busy_s")
    m["density.wm_offsupport_calls"] = first["wm_offsupport_calls"]
    m["density.wm_offsupport_busy_s"] = med("wm_offsupport_busy_s")
    m["density.wm_cancellation_max"] = measures.get("density.wm_cancellation_max", 0.0)
    m["density.bins_busy_s"] = med("bins_busy_s")
    m["analysis.pike_gap_max"] = measures.get("analysis.pike_gap_max", 0.0)
    m["cli.runs"] = counts.get("cli.runs", 0)
    m["cli.import_s"] = import_s
    m["cli.bytes_written"] = measures.get("cli.bytes_written", 0)
    m["cli.rerun_identical"] = measures.get("cli.rerun_identical", 0.0)
    m["trace.overhead_s"] = overhead_s
    return m


# ------------------------------------------------------------ fresh processes

def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its "ready" line, after
    it imported quditwalk and built the workload's inputs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def interpreter_seconds(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120,
        stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def cli_import_seconds(env: dict) -> float:
    """Fresh ``import quditwalk.cli`` minus a bare interpreter start (medians)."""
    bare = statistics.median(interpreter_seconds("pass", env) for _ in range(IMPORT_PROBES))
    cli = statistics.median(
        interpreter_seconds("import quditwalk.cli", env) for _ in range(IMPORT_PROBES)
    )
    return cli - bare


# -------------------------------------------------------------------- machine

def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_sizes() -> dict:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = size
    return out


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": cache_sizes(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- self-checks

def self_checks(wl, again) -> list[str]:
    """Counts against hand counts at tiny sizes, and repeatability."""
    from quditwalk import EulerAngles, LimitSpec, initial_state, preset_qudit, rotation_matrix, step

    problems = []
    # 2j+1 = 2, t = 3: steps see 1, 2 and 3 positions of 2 channels -> 12
    qudit = preset_qudit("up", "1/2")
    coin = rotation_matrix(qudit.j, EulerAngles(0.0, math.pi / 2, 0.0))
    field, stepped = initial_state(qudit), 0
    for _ in range(3):
        stepped += field.amps.size
        field = step(field, coin)
    counted = workloads.walk_counts(1, 3)["walk.site_updates"]
    if not counted == stepped == 12:
        problems.append(f"walk.site_updates at 2j+1=2, t=3: counted {counted}, stepped {stepped}, hand 12")
    # one channel at a = cos(pi/4): 3 of the points -1, -0.5, 0, 0.5, 1 lie inside;
    # a moment is one 200-node pass; r = 0 at 2j+1 = 3 adds the point-mass pass
    half = LimitSpec(preset_qudit("paper-sym", "1/2"), math.pi / 2)
    one = LimitSpec(preset_qudit("paper-sym", 1), math.pi / 2)
    got = (
        workloads.grid_counts(half, np.linspace(-1.0, 1.0, 5))["density.points"],
        workloads.moment_counts(half, 1)["density.points"],
        workloads.moment_counts(one, 0)["density.points"],
        workloads.moment_counts(one, 0)["density.mass_passes"],
    )
    if got != (3, 200, 400, 2):
        problems.append(f"density counts at tiny sizes {got}, hand (3, 200, 400, 2)")
    if wl.fingerprint != again.fingerprint:
        problems.append("inputs differ between two builds from one seed")
    if wl.counts() != again.counts():
        problems.append("counts differ between two builds from one seed")
    return problems


# ----------------------------------------------------------------------- main

def _parse(argv):
    p = argparse.ArgumentParser(description="quditwalk benchmark")
    p.add_argument("--workload", required=True, choices=("finite_t", "limit_law", "large_j", "cli"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    known = baseline["known_failures"].get(args.workload, {})

    def excused(r: Record) -> bool:
        """A known failure whose error has not grown clearly past its seed value."""
        return r.job in known and not r.raised and r.measures.get("error", math.inf) <= known[r.job]["excused_up_to"]

    wl = workloads.build(args.workload, args.seed)
    problems = self_checks(wl, workloads.build(args.workload, args.seed))

    records: list[Record] = []
    setup: list[float] = []

    def one_pass(tracer):
        times, recs = run_pass(wl, tracer)
        records.extend(recs)
        return times, recs

    # Warm-up: the library's caches fill and lazy set-up finishes.  Each cli
    # command is a fresh process that keeps no cache, and the set-up probes
    # already compiled the bytecode, so cli needs none.
    warm_up = one_pass(spans.Tracer(False))[0] if args.workload != "cli" else {}
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(one_pass(spans.Tracer(False))[0])
        setup.extend(setup_probe(args.workload, args.seed) for _ in range(PROBES_PER_PASS))
        if args.trace:
            tracer = spans.Tracer(True)
            times, recs = one_pass(tracer)
            traced.append((times, recs, tracer.spans))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    attempted = len(records)
    failing = [r for r in records if r.failures]
    unexpected = sorted({r.job for r in failing if not excused(r)})
    correct = not problems and not unexpected

    if args.trace:
        stats = [layer_stats(sp) for _, _, sp in traced]
        calls = [{k: v for k, v in s.items() if k.endswith("calls")} for s in stats]
        if any(c != calls[0] for c in calls):
            problems.append("call counts differ between traced passes")
            correct = False
        import_s = cli_import_seconds(workloads.program_env()) if args.workload == "cli" else 0.0
        overhead = typical_pass([t for t, _, _ in traced]) - typical_pass(plain)
        values = per_layer(wl.counts(), stats, pass_measures(traced[-1][1]), import_s, overhead)
        wanted = bench["per_layer"]
    else:
        if args.workload == "cli":
            rss = max(r.measures.get("rss_mib", 0.0) for r in records)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": typical_pass(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": rss,
            "pass_frac": (attempted - len(failing)) / attempted,
        }
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not computed: {missing}")
        correct = False
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}

    machine = machine_record()
    per_job = len(wl.jobs)
    print(f"workload {args.workload}  seed {args.seed}  inputs {wl.fingerprint[:16]}  "
          f"trace {args.trace}  timed passes {len(plain)}{' + traced ' + str(len(traced)) if traced else ''}"
          f"{' (+1 warm-up)' if warm_up else ''}, {per_job} jobs each")
    print("machine " + json.dumps(machine, sort_keys=True))
    if warm_up:
        print(f"warm-up pass (cold caches, not timed): {sum(warm_up.values()):.3f} s; "
              f"median timed pass: {statistics.median(sum(p.values()) for p in plain):.3f} s")
    for name, m in metrics.items():
        print(f"  {name:32s} {_fmt(m['value']):>14s} {m['unit']}")
    print(f"  {'fail_frac':32s} {_fmt(len(failing) / attempted):>14s} ratio  "
          f"({len(failing)} of {attempted} jobs; known: {sorted(known) or 'none'})")
    if args.trace:
        share = {layer: values[f"{layer}.self_share"] for layer in LAYERS}
        top = max(share, key=share.get)
        print(f"dominant layer by self time: {top} ({share[top]:.1%}); spans sit at the "
              "harness's call sites, so rescaled_density's inner density work counts as "
              "analysis and evolve's coin as walk")
        wedge_bins = values["density.wm_offsupport_busy_s"] + values["density.bins_busy_s"]
        total = sum(values[f"{layer}.busy_s"] for layer in (*LAYERS, "harness"))
        if wedge_bins:
            print(f"off-support weight matrices + bin masses: {wedge_bins:.4g} s "
                  f"({_ratio(wedge_bins, total):.1%} of self time)")
    for job in sorted({r.job for r in failing}):
        first = next(r for r in failing if r.job == job)
        tagline = "UNEXPECTED" if job in unexpected else "known"
        print(f"failed [{tagline}] {job}: {'; '.join(f.strip() for f in first.failures)}")
    for p in problems:
        print(f"self-check failed: {p}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": wl.fingerprint,
        "machine": machine,
        "load": "closed loop, one client; jobs run one after another",
        "setup_probes_s": setup,
        "warm_up_job_s": warm_up,
        "untraced_job_s": {job: [p[job] for p in plain] for job in plain[0]},
        "traced_job_s": {job: [t[job] for t, _, _ in traced] for job in plain[0]} if traced else {},
        "counts": wl.counts(),
        "metrics": metrics,
        "fail_frac": len(failing) / attempted,
        "failures": {r.job: r.failures for r in failing},
        "self_check_problems": problems,
        "spans": [
            [{"id": s.sid, "name": s.name, "job": s.job, "parent": s.parent,
              "start": s.start, "end": s.end, "tag": s.tag} for s in sp]
            for _, _, sp in traced
        ],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failing), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
