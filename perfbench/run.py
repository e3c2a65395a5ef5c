"""crlink benchmark: one workload, one fresh interpreter, one closed-loop client.

    python3 perfbench/run.py --workload {certify,query-mix,mesh} --seed N \
        --seconds S --trace {0,1}

Run from the root of a crlink checkout.  crlink runs in a worker process
(worker.py) that imports it from ./src and drives it only through
`crlink.cli.main(argv)`; this process generates the operations and checks
every output against the outcome recorded in perfbench/reference/.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-module ones from the outside-in tracer.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import gate
import querygen
from worker import BENCH_DIR, ROOT, SRC, BenchError, metric

OUT_DIR = BENCH_DIR / ".out"

# Import probes are spread over the run (one before, the rest between
# operations at even steps of busy time, one after) so that setup_s
# averages over the same machine conditions as the operations.
SETUP_SAMPLES = 9
# Fixed per workload so that a faster program is not judged at a higher
# percentile: the highest level with at least ten samples beyond it at the
# baseline sample count of a 36 s run.  Mesh runs about 18 operations, too
# few for ten beyond any level above the median; it reports p75.
TAIL_LEVEL = {"certify": 85, "query-mix": 99, "mesh": 75}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import crlink\n"
    "print(repr(time.perf_counter() - t0))\n"
    "print(crlink.__file__)\n"
)


# ---------------------------------------------------------------------------
# workloads: each yields ((kind, index), argv) and checks one output
# ---------------------------------------------------------------------------


class Certify:
    """The user's core job: every certificate, recomputed exactly."""

    obj_path = None

    def __init__(self, seed):
        self.ref = gate.load_reference("certify")

    def ops(self):
        while True:
            yield ("certify", 0), ["verify", "all", "--json"]

    def check(self, key, code, stdout, obj_bytes):
        return gate.check_certify(self.ref, code, stdout)


class QueryMix:
    """Exact one-off queries with growing coefficients and no fixtures."""

    obj_path = None

    def __init__(self, seed):
        self.seed = seed
        self.pool = querygen.catalogue()
        self.ref = gate.load_reference("query_mix")
        if querygen.catalogue_digest(self.pool) != self.ref["catalogue_sha256"]:
            raise BenchError("query pool differs from the one the reference was recorded on")

    def ops(self):
        for kind, k in querygen.stream(self.seed, self.pool):
            yield (kind, k), querygen.argv_for(kind, self.pool[kind][k])

    def check(self, key, code, stdout, obj_bytes):
        kind, k = key
        return gate.check_query(self.ref["outcomes"][kind][k], code, stdout)


class Mesh:
    """Float sampling and OBJ export; exact work is only the fixture build."""

    def __init__(self, seed):
        self.ref = gate.load_reference("mesh")
        self.obj_path = OUT_DIR / "mesh.obj"

    def ops(self):
        argv = ["mesh", "--fixture", "fig8-scene", "--samples", "64", "-o", str(self.obj_path)]
        while True:
            yield ("mesh", 0), argv

    def check(self, key, code, stdout, obj_bytes):
        return gate.check_mesh(self.ref, code, obj_bytes)


WORKLOADS = {"certify": Certify, "query-mix": QueryMix, "mesh": Mesh}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def import_probe():
    """Seconds `import crlink` takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    if Path(lines[1]).resolve().parent != (SRC / "crlink").resolve():
        raise BenchError(f"import probe loaded crlink from {lines[1]}")
    return float(lines[0])


class Worker:
    """The crlink process (worker.py), one request and one reply at a time."""

    def __init__(self):
        if not (SRC / "crlink" / "__init__.py").is_file():
            raise BenchError(f"no crlink sources under {SRC}; run from a crlink checkout")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._read()  # {"ready": true} once crlink is imported

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, cmd, **fields):
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class Runner:
    """Closed loop, one client: the next operation starts when one ends."""

    def __init__(self, worker, workload):
        self.worker = worker
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.output_bytes = 0
        self.by_kind = defaultdict(list)  # timed latencies per query kind

    def run_one(self, key, argv):
        """Run and check one operation; returns (seconds, passed)."""
        obj = self.workload.obj_path
        if obj is not None:
            obj.unlink(missing_ok=True)
        reply = self.worker.ask("op", argv=argv)
        code, stdout, problem = reply["code"], reply["stdout"], reply["error"]
        obj_bytes = obj.read_bytes() if obj is not None and obj.exists() else b""
        self.output_bytes += len(stdout) + reply["stderr_len"] + len(obj_bytes)
        if problem is None:
            try:
                problem = self.workload.check(key, code, stdout, obj_bytes)
            except (ValueError, LookupError, ArithmeticError) as e:
                problem = f"unreadable output: {type(e).__name__}: {e}"
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{key}: {problem}")
        return reply["elapsed"], problem is None

    def loop(self, seconds, ops, between=None):
        """Run operations until their summed time reaches `seconds`;
        `between(busy_seconds)` runs after each one, untimed."""
        latencies, correct, busy = [], 0, 0.0
        while busy < seconds or not latencies:
            key, argv = next(ops)
            elapsed, ok = self.run_one(key, argv)
            latencies.append(elapsed)
            self.by_kind[key[0]].append(elapsed)
            correct += ok
            busy += elapsed
            if between is not None:
                between(busy)
        return latencies, correct


def percentile(values, level):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_plain(runner, args, setup):
    """Timed loop with tracing off: the end-to-end metrics."""
    marks = [args.seconds * j / (SETUP_SAMPLES - 1) for j in range(1, SETUP_SAMPLES - 1)]

    def probe_due(busy):
        while marks and busy >= marks[0]:
            marks.pop(0)
            setup.append(import_probe())

    ops = runner.workload.ops()
    runner.run_one(*next(ops))  # warm-up, checked but not timed
    latencies, correct = runner.loop(args.seconds, ops, probe_due)
    setup.extend(import_probe() for _ in range(SETUP_SAMPLES - len(setup)))
    level = TAIL_LEVEL[args.workload]
    tail = percentile(latencies, level)
    # The JSON line carries the gated metrics of BENCHMARK.json.  op_p50_s
    # and fail_frac are printed only (see README.md, "End-to-end metrics").
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_tail_s": metric(tail, "s"),
        "ops_per_s": metric(correct / sum(latencies), "1/s"),
        "peak_rss_mb": metric(runner.worker.ask("peak_rss")["peak_rss_mb"], "MB"),
    }
    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  {len(latencies)} timed ops "
          f"after 1 warm-up, one closed-loop client  python {sys.version.split()[0]}")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s   "
          f"(median of {len(setup)} fresh interpreters over the run)")
    print(f"  op_p50_s     {statistics.median(latencies):.5f} s   (n={len(latencies)})")
    if len(runner.by_kind) > 1:
        for kind, values in runner.by_kind.items():
            print(f"    {kind:10s} {statistics.median(values):.5f} s   (n={len(values)})")
    print(f"  op_tail_s    {tail:.5f} s   "
          f"(p{level}; {sum(1 for x in latencies if x > tail)} samples beyond)")
    print(f"  ops_per_s    {metrics['ops_per_s']['value']:.3f} 1/s")
    print(f"  fail_frac    {failed / runner.attempted:.4f}   "
          f"({failed} of {runner.attempted} incl. warm-up)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB   (the crlink worker)")
    return metrics


def run_traced(runner, args):
    """A third of the time untraced, then the same operations traced."""
    ops = runner.workload.ops()
    runner.run_one(*next(ops))  # warm-up
    plain, _ = runner.loop(args.seconds / 3, ops)

    ops = runner.workload.ops()
    next(ops)  # skip the warm-up so both phases run the same operations
    bytes_before = runner.output_bytes
    runner.worker.ask("trace_start")
    traced, _ = runner.loop(2 * args.seconds / 3, ops)

    m = min(len(plain), len(traced))
    overhead = statistics.median(traced[:m]) / statistics.median(plain[:m]) - 1
    span_file = OUT_DIR / f"trace-{args.workload}.jsonl"
    reply = runner.worker.ask("trace_stop", ops=len(traced),
                              output_bytes=runner.output_bytes - bytes_before,
                              overhead=overhead, span_file=str(span_file))
    metrics = reply["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  traced {len(traced)} ops, "
          f"untraced {len(plain)}; {reply['spans']} spans, "
          f"{reply['written']} written to {span_file.relative_to(ROOT)}")
    for name, item in metrics.items():
        print(f"  {name:44s} {item['value']:.6g} {item['unit']}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    worker = None
    try:
        OUT_DIR.mkdir(exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed)
        worker = Worker()
        setup = [import_probe()]
        runner = Runner(worker, workload)
        metrics = run_traced(runner, args) if args.trace else run_plain(runner, args, setup)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        if worker is not None:
            worker.close()
    for problem in runner.failures[:10]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
