"""Benchmark of the binheight command line, one workload per process.

    python3 bench/run.py --workload polyomino-span --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ./src and
nowhere else.  Each round of the workload is generated from the seed, written
to files under bench/work/ before its clock starts, and answered in-process
through binheight.cli.entrypoint([command, file, "--json", ...]) with stdout
captured.  One instance is one operation; an operation fails on a nonzero
exit code, an exception, or a report that fails its independent check
(checks.py).  Rounds repeat until the next one would end past --seconds.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are end to end: wall_s and
max_instance_s (medians over rounds of a round's total and slowest instance
time), peak_rss_mb (the process's ru_maxrss) and setup_s (a fresh
interpreter importing binheight.cli).  With --trace 1 the package's public
functions are wrapped (tracing.py) and the metrics are per layer, as means
per round; the spans go to bench/results/trace-*.jsonl.gz, one JSON array
[id, parent, instance, name, start, end] per line.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS, make_rounds  # noqa: E402

SETUP_TIMEOUT_S = 60


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Seconds for a fresh interpreter to start and import binheight.cli."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import binheight.cli as c; "
        "sys.exit(0 if c.__file__.startswith(sys.argv[1]) else 3)"
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=SETUP_TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"importing binheight.cli failed: {done.stderr.decode()[-500:]}")
    return seconds


def _import_cli():
    sys.path.insert(0, str(SRC))
    import binheight.cli as cli

    if not cli.__file__.startswith(str(SRC)):
        raise RuntimeError(f"binheight imported from {cli.__file__}, not from {SRC}")
    return cli


def answer(cli, instance: dict, path: Path, tracer: Tracer | None):
    """Run one instance through the CLI: (seconds, exit code, stdout, error)."""
    argv = [instance["command"], str(path), "--json", *instance["flags"]]
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.instance = instance["name"]
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.entrypoint(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            code, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    if code not in (0, None):
        error = err.getvalue()[-500:]
    return seconds, code, out.getvalue(), error


def run_rounds(cli, workload: str, seed: int, seconds: float, tracer, workdir: Path):
    make_round = make_rounds(workload)
    rounds: list[list[float]] = []
    stats = {"attempted": 0, "failed": 0, "wrong": 0, "stdout_bytes": 0}
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        instances = make_round(random.Random(f"{workload}/{seed}/{len(rounds)}"))
        paths = []
        for k, instance in enumerate(instances):
            path = workdir / f"r{len(rounds)}-{k}-{instance['name']}.json"
            path.write_text(json.dumps(instance["payload"]))
            paths.append(path)
        times = []
        for instance, path in zip(instances, paths):
            secs, code, out, error = answer(cli, instance, path, tracer)
            times.append(secs)
            stats["attempted"] += 1
            stats["stdout_bytes"] += len(out.encode())
            if code != 0:
                stats["failed"] += 1
                problems.append(f"{path.name}: exit {code}: {error}")
                continue
            found = check(instance, json.loads(out))
            if found:
                stats["failed"] += 1
                stats["wrong"] += 1
                problems.append(f"{path.name}: {'; '.join(found)}")
        rounds.append(times)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return rounds, stats, problems


def end_to_end(rounds, setup_s: float) -> dict:
    return {
        "wall_s": (statistics.median([sum(r) for r in rounds]), "s"),
        "max_instance_s": (statistics.median([max(r) for r in rounds]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer: Tracer, rounds, stats) -> dict:
    """Per-round means of every layer metric whose traced function exists."""
    per = 1 / len(rounds)
    have = tracer.installed

    def calls(name):
        return tracer.calls[name] * per if name in have else None

    def total(name):
        return tracer.total[name] * per if name in have else None

    def self_s(name):
        return tracer.self_time[name] * per if name in have else None

    def counter(name, key):
        return tracer.counters[f"{name}.{key}"] * per if name in have else None

    snf, inc = "linalg.smith_normal_form", "linalg.IncrementalRank.insert"
    tip, jac = "toric.ToricIdealPresentation.init", "toric.jacobian_generators"
    iso = "toric.isolated_singularity_by_jacobian"
    metrics = {
        f"{snf}.calls": (calls(snf), "count"),
        f"{snf}.s": (total(snf), "s"),
        f"{snf}.transform_entries": (counter(snf, "transform_entries"), "count"),
        "linalg.lattice_basis.s": (total("linalg.lattice_basis"), "s"),
        "linalg.rational_rank.s": (total("linalg.rational_rank"), "s"),
        "linalg.nonzero_minors.s": (total("linalg.nonzero_minors"), "s"),
        "linalg.nonzero_minors.yielded": (counter("linalg.nonzero_minors", "yielded"), "count"),
        f"{inc}.calls": (calls(inc), "count"),
        f"{inc}.s": (total(inc), "s"),
        "binomial.height_bounds.calls": (calls("binomial.height_bounds"), "count"),
        "binomial.height_bounds.self_s": (self_s("binomial.height_bounds"), "s"),
        f"{tip}.s": (total(tip), "s"),
        "toric.ToricIdealPresentation.generators": (counter(tip, "generators"), "count"),
        f"{jac}.calls": (calls(jac), "count"),
        f"{jac}.self_s": (self_s(jac), "s"),
        f"{jac}.found": (counter(jac, "found"), "count"),
        f"{iso}.self_s": (self_s(iso), "s"),
        "hibi.poset_ideals.s": (total("hibi.poset_ideals"), "s"),
        "hibi.ideals": (counter("hibi.poset_ideals", "ideals"), "count"),
        "hibi.presentation.self_s": (self_s("hibi.presentation"), "s"),
        "hibi.relations": (counter("hibi.presentation", "relations"), "count"),
        "polyomino.inner_intervals.calls": (calls("polyomino.inner_intervals"), "count"),
        "polyomino.inner_intervals.s": (total("polyomino.inner_intervals"), "s"),
        "polyomino.height_report.self_s": (self_s("polyomino.height_report"), "s"),
        "bedge.cut_sets.calls": (calls("bedge.cut_sets"), "count"),
        "bedge.cut_sets.s": (total("bedge.cut_sets"), "s"),
        "bedge.components_after_removal.calls": (calls("bedge.components_after_removal"), "count"),
        "bedge.height_report.self_s": (self_s("bedge.height_report"), "s"),
        "cli.stdout_bytes": (stats["stdout_bytes"] * per, "bytes"),
        "cli.calls": (calls("cli.entrypoint"), "count"),
        "trace.wall_s": (sum(map(sum, rounds)) * per, "s"),
    }
    for method in ("power-witness", "face-decomposition", "zero-ideal"):
        metrics[f"toric.decided.{method}"] = (counter(iso, f"decided.{method}"), "count")
    modules = tracer.module_self_time()
    for module in MODULES:
        if any(name.startswith(module + ".") for name in have):
            metrics[f"{module}.self_s"] = (modules[module] * per, "s")
    return metrics


def write_trace(path: Path, tracer: Tracer) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "binheight" / "cli.py").is_file():
        print(f"no binheight sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup() if args.trace == 0 else None
    cli = _import_cli()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = HERE / "work" / f"{tag}-p{os.getpid()}"
    results = HERE / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    try:
        rounds, stats, problems = run_rounds(
            cli, args.workload, args.seed, args.seconds, tracer, workdir
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(rounds, setup_s)
    else:
        metrics = per_layer(tracer, rounds, stats)
        write_trace(results / f"trace-{tag}.jsonl.gz", tracer)
    result = {
        "correct": stats["wrong"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }
    detail = dict(result, rounds=rounds, problems=problems)
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
