"""rotaxa benchmark: closed-loop jobs through the public compute/check path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload battery --seed 1 --seconds 40 --trace 0

One process runs one workload: a single thread sends one job at a time and
each job runs ``serialize.load_model`` -> ``engine.compute`` ->
``serialize.result_to_dict`` -> ``serialize.dumps_canonical`` and, for jobs
that check, ``engine.run_checks`` and the report serialization.  Passes over
all jobs of the workload repeat until ``--seconds`` is used up.  Every output
is verified (see ``workloads.verify``).  The last line of standard output is
one JSON object; a human-readable summary goes to standard error.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
public functions of each module and reports per-layer counts, self times
and the tracing overhead against untraced passes of the same process.
``--workload all`` runs every workload, each in a fresh process, and prints
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from speed import SpeedSampler
from tracer import Tracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, build_jobs, verify

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

JOB_TIME_LIMIT_S = 60.0
RUN_TIME_CAP_S = 150.0
SETUP_SAMPLES = 9

END_TO_END_UNITS = {"compute_s": "s", "job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metric -> workloads on which it must not read zero.  A zero here
# means a call path the tracer did not wrap (a missed binding) or a workload
# that no longer exercises the layer it was chosen for.
EXPECTED_NONZERO = {
    "simplex.solve_lp.calls": WORKLOADS,
    "simplex.pivots": WORKLOADS,
    "exactgeom.extreme_points.calls": WORKLOADS,
    "exactgeom.extreme_points.points_in": WORKLOADS,
    "exactgeom.extreme_points.vertices_out": WORKLOADS,
    "exactgeom.lps_per_hull": WORKLOADS,
    "exactgeom.hull_membership.calls": WORKLOADS,
    "exactgeom.contains_point.calls": ("battery", "sampling"),
    "exactgeom.segment_interval.calls": ("battery",),
    "markov.simple_cycles.cycles": WORKLOADS,
    "markov.piece_rotation_set.calls": WORKLOADS,
    "markov.rotation_sets.calls": WORKLOADS,
    "heteroclinic.maximal_nontrivial_chains.chains": WORKLOADS,
    "heteroclinic.chain_rotation_set.calls": WORKLOADS,
    "conley.blocks": WORKLOADS,
    "analysis.star_shape_check.segments": ("battery",),
    "analysis.convexity_probe.calls": ("battery",),
    "analysis.convexity_probe.points": ("battery",),
    "oracle.sample_chain_averages.samples": ("sampling",),
}


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


def import_rotaxa():
    """Import the program from this checkout's ``src``, and nowhere else."""
    if not (SRC / "rotaxa" / "__init__.py").is_file():
        raise SystemExit(f"error: no rotaxa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rotaxa

    if Path(rotaxa.__file__).resolve().parent != SRC / "rotaxa":
        raise SystemExit(f"error: imported rotaxa from {rotaxa.__file__}")
    return rotaxa


def run_job(rotaxa, job, limit: float, tracer=None) -> dict:
    """Run one job under a time limit; never raises for a program fault.

    The record holds the wall-clock marks before compute, between compute
    and check, and after check (a failed job's time counts up to its
    failure, in the phase that failed) and, on success, the job's output.
    """
    serialize, engine = rotaxa.serialize, rotaxa.engine
    record = {"name": job.name, "problems": []}
    start, middle = time.perf_counter(), None
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with tracer.job() if tracer else nullcontext():
            model = serialize.load_model(job.document)
            computation = engine.compute(model)
            output = serialize.dumps_canonical(serialize.result_to_dict(computation))
            middle = time.perf_counter()
            if job.checks is not None:
                outcomes = engine.run_checks(computation, **job.checks)
                output = serialize.dumps_canonical(
                    serialize.result_to_dict(computation, outcomes)
                )
    except JobTimeout:
        record["problems"].append(f"exceeded the {limit:.0f} s job time limit")
    except rotaxa.ResourceCapError as exc:
        record["problems"].append(f"resource cap: {exc}")
    except Exception as exc:  # the pass goes on; the job counts as failed
        record["problems"].append(f"raised {type(exc).__name__}: {exc}")
    else:
        record["output"] = output.encode()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.perf_counter()
    record["marks"] = (start, middle or end, end)
    return record


def run_pass(rotaxa, jobs, args, deadline: float, tracer=None) -> list[dict]:
    """One pass over the jobs; times are normalised to nominal host speed."""
    records = []
    with SpeedSampler() as sampler:
        for job in jobs:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                records.append({"name": job.name, "problems": ["run time cap reached"]})
                continue
            record = run_job(rotaxa, job, min(JOB_TIME_LIMIT_S, remaining), tracer)
            if "output" in record:
                try:
                    record["problems"] += verify(
                        rotaxa, job, record.pop("output"), args.seed, args.workload
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    record["problems"].append(f"unreadable output: {exc!r}")
            records.append(record)
    for record in records:
        start, middle, end = record.pop("marks", (0.0, 0.0, 0.0))  # not started
        record["compute_s"] = sampler.normalise(start, middle)
        record["check_s"] = sampler.normalise(middle, end)
        record["wall_s"] = end - start
    return records


def pass_times(records) -> dict:
    compute = sum(r["compute_s"] for r in records)
    return {
        "compute_s": compute,
        "job_s": compute + sum(r["check_s"] for r in records),
        "wall_s": sum(r["wall_s"] for r in records),
    }


def run_passes(rotaxa, jobs, args, started: float, tracer=None) -> list[tuple]:
    """Passes until ``--seconds`` is used up, as ``(records, layers)`` pairs.

    With a tracer, traced and untraced passes alternate, and at least two
    traced passes (so their counts can be compared) and one untraced pass
    (so the tracing overhead can be stated) run.
    """
    deadline = started + RUN_TIME_CAP_S
    loop_start = time.perf_counter()
    passes = []
    while True:
        traced = sum(1 for _, layers in passes if layers is not None)
        # Each pass starts from a fully collected heap, as a fresh process
        # would: garbage held in reference cycles otherwise builds up across
        # passes until a full collection, and peak RSS grows with the count.
        gc.collect()
        begin = time.perf_counter()
        if tracer is not None and traced <= len(passes) - traced:
            tracer.install()
            tracer.reset()
            try:
                records = run_pass(rotaxa, jobs, args, deadline, tracer)
            finally:
                tracer.uninstall()
            passes.append((records, layer_metrics(tracer.spans, tracer.counts)))
            traced += 1
        else:
            passes.append((run_pass(rotaxa, jobs, args, deadline), None))
        took = time.perf_counter() - begin
        enough = tracer is None or (traced >= 2 and len(passes) > traced)
        if enough and time.perf_counter() - loop_start + took > args.seconds:
            return passes
        if time.perf_counter() > deadline:
            return passes


def measure(rotaxa, jobs, args, started: float):
    """Untraced passes; end-to-end metrics."""
    passes = run_passes(rotaxa, jobs, args, started)
    times = [pass_times(records) for records, _ in passes]
    metrics = {
        "compute_s": statistics.median(t["compute_s"] for t in times),
        "job_s": statistics.median(t["job_s"] for t in times),
    }
    print(
        f"{args.workload} seed {args.seed}: {len(times)} passes; per pass, "
        f"compute_s {[round(t['compute_s'], 3) for t in times]}, "
        f"job_s {[round(t['job_s'], 3) for t in times]}, "
        f"wall seconds {[round(t['wall_s'], 3) for t in times]}",
        file=sys.stderr,
    )
    return metrics, [r for records, _ in passes for r in records], []


def trace(rotaxa, jobs, args, started: float):
    """Traced passes alternating with untraced ones; per-layer metrics."""
    tracer = Tracer()
    problems = []
    passes = run_passes(rotaxa, jobs, args, started, tracer)
    records = [r for pass_records, _ in passes for r in pass_records]
    layers = [layers for _, layers in passes if layers is not None]
    if len(layers) < 2 or len(layers) == len(passes):
        return {}, records, problems + ["run time cap reached while tracing"]
    metrics = {}
    for name in layers[0]:
        if name.endswith("self_s"):
            metrics[name] = statistics.median(m[name] for m in layers)
        else:
            metrics[name] = layers[0][name]
            if any(m[name] != layers[0][name] for m in layers[1:]):
                problems.append(f"{name} differs between traced passes")
    traced_s = [pass_times(r)["job_s"] for r, m in passes if m is not None]
    untraced_s = [pass_times(r)["job_s"] for r, m in passes if m is None]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1
    )
    for name, workloads in EXPECTED_NONZERO.items():
        if args.workload in workloads and not metrics[name]:
            problems.append(f"{name} recorded nothing on {args.workload}")
    return metrics, records, problems


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if "_per_" in name or name.endswith("overhead_frac"):
        return "ratio"
    return "count"


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, at nominal host speed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_workload(args) -> int:
    started = time.perf_counter()
    rotaxa = import_rotaxa()
    jobs = build_jobs(args.workload, args.seed, rotaxa)
    setup = setup_samples(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _alarm)

    if args.trace:
        metrics, records, problems = trace(rotaxa, jobs, args, started)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, records, problems = measure(rotaxa, jobs, args, started)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
        print(f"setup_s samples {[round(s, 4) for s in setup]}", file=sys.stderr)
    failed = [r for r in records if r["problems"]]
    for record in failed:
        print(f"FAILED {record['name']}: {'; '.join(record['problems'])}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"{args.workload}: failed_frac {len(failed)}/{len(records)}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=180,
        )
        if child.returncode != 0:
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
            print(f"{workload:12} {name:48} {metric['value']:12.6g} {metric['unit']}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
