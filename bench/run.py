"""Seeded benchmark of braidforms, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload word_problem --seed 1 --seconds 20 --trace 0

With ``--trace 0`` a closed loop with one client runs the workload's seeded
pool of operations for ``--seconds`` seconds and reports end-to-end metrics.
With ``--trace 1`` it runs a fixed prefix of the pool once untraced and once
with spans around every library layer, and reports per-layer metrics; the
prefix is fixed so that counts repeat exactly.  Every result is verified
outside the timed region.  The last line of stdout is one JSON object; the
exit code is 1 when a result is wrong and 2 when the benchmark cannot run.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import spin

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11  # fresh interpreters timed per run for setup_s
WARMUP_OPS = 3
SPIN_EVERY_NS = 10_000_000  # reference spin interval in the timed loop
SEGMENT_NS = 500_000_000  # operations share the median spin of their segment


class Failed:
    """Outcome of an operation that raised: a budget trip or an error."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __eq__(self, other):
        return isinstance(other, Failed) and (self.kind, self.message) == (other.kind, other.message)


def load_library():
    """Import braidforms from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "braidforms" / "__init__.py").is_file():
        print(f"bench: no braidforms package under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import braidforms

    if SRC.resolve() not in Path(braidforms.__file__).resolve().parents:
        print(f"bench: braidforms was imported from {braidforms.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def child_seconds(code: str, env: dict) -> float:
    """Run ``code`` in a fresh interpreter; it prints its own time last."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def timed_code(body: str) -> str:
    """Code that times ``body`` and prints the time, speed-corrected by a
    reference spin run right after it."""
    return (
        f"import sys, time\nsys.path.insert(0, {str(BENCH)!r})\nimport spin\n"
        f"t0 = time.perf_counter_ns()\n{body}\nt1 = time.perf_counter_ns()\n"
        "spins = []\nfor _ in range(5):\n"
        "    s0 = time.perf_counter_ns(); spin.spin(); spins.append(time.perf_counter_ns() - s0)\n"
        "print((t1 - t0) * spin.REF_NS / min(spins) / 1e9)\n"
    )


def setup_seconds(workload, env: dict) -> float:
    """Median over fresh interpreters of importing braidforms and running
    the workload's first kind of operation once."""
    code = timed_code("import braidforms\n" + workload.setup)
    return statistics.median(child_seconds(code, env) for _ in range(SETUP_REPEATS))


def commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def percentile(sorted_ns, pct: int) -> tuple[float, int]:
    """Nearest-rank percentile in ms, and the number of samples above it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1e6, len(sorted_ns) - rank


def execute(run, op):
    try:
        return run(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Failed(exc)


class Timing:
    """Latencies and end times of every execution, the reference spins run
    between them, and the results of the first pass over the pool."""

    def __init__(self):
        self.lat = array("q")
        self.ends = array("q")
        self.spins: list[tuple[int, int]] = []
        self.first: list = []
        self.repeats_differ = 0


def loop(run, pool, seconds=None, tracer=None) -> Timing:
    """Run the pool in order, over again, until ``seconds`` pass, or once
    when ``seconds`` is None."""
    clock = time.perf_counter_ns
    t = Timing()
    deadline = None if seconds is None else clock() + int(seconds * 1e9)
    last_spin = -SPIN_EVERY_NS
    i = 0
    while True:
        j = i % len(pool)
        op = pool[j]
        t0 = clock()
        if tracer is None:
            res = execute(run, op)
        else:
            res = tracer.run_op(j, op.kind, lambda: execute(run, op))
        t1 = clock()
        t.lat.append(t1 - t0)
        t.ends.append(t1)
        if j == len(t.first):
            t.first.append(res)
        elif res != t.first[j]:
            t.repeats_differ += 1
        i += 1
        if t1 - last_spin >= SPIN_EVERY_NS:
            spin.spin()
            last_spin = clock()
            t.spins.append((last_spin, last_spin - t1))
        if (deadline is None and i == len(pool)) or (deadline is not None and t1 >= deadline):
            return t


def speed_corrected(t: Timing):
    """Each latency times spin.REF_NS over the median spin of its segment
    (the nearest segment that has spins)."""
    start = t.spins[0][0]
    segments: dict[int, list[int]] = {}
    for at, ns in t.spins:
        segments.setdefault((at - start) // SEGMENT_NS, []).append(ns)
    keys = sorted(segments)
    medians = [statistics.median(segments[k]) for k in keys]
    out = array("d")
    for lat, end in zip(t.lat, t.ends):
        k = (end - start) // SEGMENT_NS
        i = bisect.bisect_left(keys, k)
        if i == len(keys) or (i > 0 and k - keys[i - 1] < keys[i] - k):
            i -= 1
        out.append(lat * spin.REF_NS / medians[i])
    return out


def verify(name: str, pool, results) -> list[str]:
    import checks

    problems = []
    agreed: dict = {}
    for i, res in enumerate(results):
        if isinstance(res, Failed):
            continue
        op = pool[i]
        if name == "word_problem":
            found = checks.check_word_problem(op, res)
        elif name == "rewrite":
            found = checks.check_rewrite(op, res, agreed)
        elif name == "artin":
            found = checks.check_artin(op, res)
        else:
            found = checks.check_cli(op, res)
        problems += [f"op {i} ({op.kind}): {msg}" for msg in found]
    return problems


def failures(t: Timing) -> tuple[int, int]:
    """(budget trips, other errors) among the distinct operations the loop
    ran.  A repeated operation counts once, so the counts do not grow with
    speed."""
    failed = [res for res in t.first if isinstance(res, Failed)]
    trips = sum(res.kind == "StepBudgetExceeded" for res in failed)
    return trips, len(failed) - trips


def end_to_end(workload, pool, t: Timing, lat) -> tuple[dict, int]:
    """Throughput and latency of the loop, from latencies ``lat`` (ns).
    Throughput counts completed executions over the time of all of them."""
    busy_s = sum(lat) / 1e9
    done = [not isinstance(r, Failed) for r in t.first]
    sizes = [workload.letters(op, r) if ok else 0 for op, r, ok in zip(pool, t.first, done)]
    completed = sum(done[i % len(pool)] for i in range(len(lat)))
    letters = sum(sizes[i % len(pool)] for i in range(len(lat)))
    ordered = sorted(lat)
    tail_ms, beyond = percentile(ordered, workload.tail)
    return {
        "ops_per_s": (completed / busy_s, "1/s"),
        "out_letters_per_s": (letters / busy_s, "1/s"),
        "op_ms_p50": (statistics.median(ordered) / 1e6, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
    }, beyond


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def rss_mb() -> float | None:
    """Current resident set of this process, where /proc gives it."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


PER_LAYER_SPANS = (
    "gathering.normal_form",
    "gathering.gather_strand",
    "words.free_reduce",
    "randbraid.random_braid",
    "randbraid.allowed_moves",
    "rewriting.residue.leftmost",
    "rewriting.residue.rightmost",
    "rewriting.residue.random",
    "rewriting.applicable_sites",
    "crossings.word_to_crossings",
    "crossings.crossings_to_word",
    "crossings.validate",
    "artin.normalize_a",
    "artin.equal_a",
    "diagram.render_svg",
)
STRAND_KEYS = ("k3", "k4", "k5", "k6", "k7", "k8", "k9_up")


def per_layer(tracer, oracle_tracer, overhead_share, cli_times):
    """Every per-layer metric, with 0 for layers the workload never reaches."""
    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts
    m = {}
    for name in PER_LAYER_SPANS:
        m[name + ".calls"] = (calls[name], "count")
        m[name + ".self_s"] = (self_ns[name] / 1e9, "s")
    gs = "gathering.gather_strand"
    m[gs + ".letters_in"] = (counts[gs + ".letters_in"], "count")
    m[gs + ".block_letters_out"] = (counts[gs + ".block_letters_out"], "count")
    m[gs + ".nonempty_ratio"] = (counts[gs + ".nonempty"] / calls[gs] if calls[gs] else 0.0, "ratio")
    for key in STRAND_KEYS:
        m[f"{gs}.{key}.self_s"] = (counts[f"{gs}.{key}.self_ns"] / 1e9, "s")
    for kind in ("leftmost", "rightmost", "random"):
        name = f"rewriting.residue.{kind}.budget_trips"
        m[name] = (counts[name], "count")
    sites = "rewriting.applicable_sites"
    residues = sum(calls[f"rewriting.residue.{k}"] for k in ("leftmost", "rightmost", "random"))
    steps = calls[sites] - residues
    found = counts[sites + ".sites_found"]
    m[sites + ".sites_found"] = (found, "count")
    m["rewriting.steps"] = (steps, "count")
    m["rewriting.sites_used_ratio"] = (steps / found if found else 0.0, "ratio")
    m["artin.gather_steps_a.steps"] = (counts["artin.gather_steps_a.steps"], "count")
    m["artin.gather_steps_a.self_s"] = (self_ns["artin.gather_steps_a"] / 1e9, "s")
    m["diagram.render_svg.bytes_out"] = (counts["diagram.render_svg.bytes_out"], "count")
    for name in ("cli.python_start_s", "cli.import_s", "cli.command_s"):
        m[name] = (cli_times.get(name, 0.0), "s")
    for name in ("oracle.burau", "oracle.mutate"):
        m[name + ".calls"] = (oracle_tracer.calls[name], "count")
        m[name + ".self_s"] = (oracle_tracer.self_ns[name] / 1e9, "s")
    m["trace.overhead_share"] = (overhead_share, "ratio")
    m["trace.spans"] = (len(tracer.start), "count")
    return m


def cli_layer_times(env: dict, command_ns) -> dict:
    """Interpreter start-up, import of the CLI, and the command run in process."""
    bare = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
    imports = [child_seconds(timed_code("import braidforms.cli"), env) for _ in range(SETUP_REPEATS)]
    return {
        "cli.python_start_s": statistics.median(bare),
        "cli.import_s": statistics.median(imports),
        "cli.command_s": statistics.median(command_ns) / 1e9,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_library()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    is_cli = workload.name == "cli_oneshot"
    env = workloads.cli_env()
    workloads.out_dir().mkdir(parents=True, exist_ok=True)
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "loop": "closed",
        "clients": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "step_budget": workload.budget,
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }

    oracle_tracer = spans.Tracer()
    if args.trace:
        spans.install_oracle(oracle_tracer)
    try:
        t0 = time.perf_counter()
        pool = workload.build(args.seed)
        meta["generate_s"] = time.perf_counter() - t0
        meta["pool_ops"] = len(pool)
        run = workloads.run_cli_in_process if (is_cli and args.trace) else workload.run
        for op in pool[:WARMUP_OPS]:
            execute(run, op)
        gc.collect()

        if not args.trace:
            # the harness's share of the peak: import, pool and its generation
            meta["rss_mb_before_loop"] = rss_mb()
            meta["peak_rss_mb_before_loop"] = peak_rss_mb(children=is_cli)
            t = loop(run, pool, args.seconds)
            rss = peak_rss_mb(children=is_cli)
            metrics, beyond = end_to_end(workload, pool, t, speed_corrected(t))
            metrics["setup_s"] = (setup_seconds(workload, env), "s")
            metrics["peak_rss_mb"] = (rss, "MB")
            raw, _ = end_to_end(workload, pool, t, t.lat)
            meta["uncorrected"] = {k: v for k, (v, _) in raw.items()}
            meta["spin_ns_median"] = statistics.median(ns for _, ns in t.spins)
            meta["tail_percentile"] = workload.tail
            meta["tail_samples"] = len(t.lat)
            meta["tail_samples_beyond"] = beyond
        else:
            pool = pool[: workload.trace_ops]
            plain = loop(run, pool)
            tracer = spans.Tracer()
            spans.install_layers(tracer, with_cli=is_cli)
            try:
                t = loop(run, pool, tracer=tracer)
            finally:
                tracer.restore()
            traced_lat, plain_lat = speed_corrected(t), speed_corrected(plain)
            traced, _ = end_to_end(workload, pool, t, traced_lat)
            untraced, _ = end_to_end(workload, pool, plain, plain_lat)
            meta["traced_minus_untraced"] = {k: traced[k][0] - untraced[k][0] for k in traced}
        t0 = time.perf_counter()
        problems = verify(workload.name, pool, t.first)
        meta["verify_s"] = time.perf_counter() - t0
    finally:
        oracle_tracer.restore()
    if args.trace:
        cli_times = cli_layer_times(env, plain.lat) if is_cli else {}
        metrics = per_layer(tracer, oracle_tracer, sum(traced_lat) / sum(plain_lat) - 1, cli_times)
        trace_path = workloads.out_dir() / f"trace-{workload.name}-{args.seed}.json"
        tracer.dump(trace_path)
        meta["trace_file"] = str(trace_path.relative_to(ROOT))

    trips, errors = failures(t)
    failed = trips + errors
    wrong = len(problems) + t.repeats_differ
    for msg in problems[:20]:
        print("wrong:", msg, file=sys.stderr)
    for res in t.first:
        if isinstance(res, Failed) and res.kind != "StepBudgetExceeded":
            print(f"error: {res.kind}: {res.message}", file=sys.stderr)
            break

    attempted = len(t.first)
    meta["executions"] = len(t.lat)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        label = f"op_ms_p{workload.tail}" if name == "op_ms_tail" else name
        print(f"{label:48s} {value:>16.6g} {unit}")
    print(
        f"{'failed_share':48s} {failed / attempted:>16.6g} "
        f"({trips} budget trips, {errors} errors of {attempted} distinct operations)"
    )
    print(f"{'wrong_results':48s} {wrong:>16d}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
