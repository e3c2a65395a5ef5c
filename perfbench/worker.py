"""The measured process: crlink, the tracer, and none of the checking.

    python3 perfbench/worker.py

run.py starts one worker per run, from the root of a crlink checkout, and
talks to it over the worker's stdin and stdout, one JSON object a line.
The worker imports crlink from ./src and runs each operation through
`crlink.cli.main(argv)`; run.py generates the operations and checks the
outputs in its own process.  So the worker's peak RSS, which is what
`peak_rss_mb` reports, holds crlink's memory and not the query pool, the
references or the gate's parsing.

Requests and replies:

- {"cmd": "op", "argv": [...]} -> {"code", "error", "stdout", "stderr_len",
  "elapsed"}; `error` is set when an exception escapes `main`.
- {"cmd": "trace_start"} -> {}; installs the outside-in tracer.
- {"cmd": "trace_stop", "ops", "output_bytes", "overhead", "span_file"} ->
  {"metrics", "spans", "written"}; removes the tracer, writes the raw spans.
- {"cmd": "peak_rss"} -> {"peak_rss_mb"}.

The first line the worker writes is {"ready": true} once crlink is
imported.  It exits when its stdin closes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_crlink():
    if not (SRC / "crlink" / "__init__.py").is_file():
        raise BenchError(f"no crlink sources under {SRC}; run from a crlink checkout")
    sys.path.insert(0, str(SRC))
    import crlink.cli

    if Path(crlink.cli.__file__).resolve().parent != (SRC / "crlink").resolve():
        raise BenchError(f"imported crlink from {crlink.cli.__file__}, not from {SRC}")
    return crlink.cli


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as e:  # an escaping exception is a failed operation
            code, error = None, f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
    return {"code": code, "error": error, "stdout": out.getvalue(),
            "stderr_len": len(err.getvalue()), "elapsed": elapsed}


# ---------------------------------------------------------------------------
# per-module trace
# ---------------------------------------------------------------------------

TRACE_MODULES = ("scalars", "heisenberg", "isometry", "tetra", "complexes",
                 "fixtures", "report", "cli")

NAMED = {
    ("scalars", "CycloNumber.__mul__"): "scalars.mul",
    ("scalars", "CycloNumber.inverse"): "scalars.inverse",
    ("scalars", "CycloNumber.galois"): "scalars.galois",
    ("scalars", "CycloNumber.real_imag_surd_coords"): "scalars.real_imag_surd_coords",
    ("scalars", "CycloNumber.sign"): "scalars.sign",
    ("scalars", "CycloNumber.to_complex"): "scalars.to_complex",
    ("scalars", "CycloNumber.__str__"): "scalars.str",
    ("scalars", "in_ring"): "scalars.in_ring",
    ("scalars", "parse_scalar"): "scalars.parse_scalar",
    ("isometry", "Mat3.__mul__"): "isometry.mat_mul",
    ("isometry", "Mat3.__pow__"): "isometry.mat_pow",
    ("isometry", "check_unitary"): "isometry.check_unitary",
    ("isometry", "classify"): "isometry.classify",
    ("isometry", "from_triples"): "isometry.from_triples",
    ("isometry", "eval_word"): "isometry.eval_word",
    ("isometry", "matrix_in_ring"): "isometry.matrix_in_ring",
    ("heisenberg", "lift"): "heisenberg.lift",
    ("heisenberg", "herm"): "heisenberg.herm",
    ("heisenberg", "cartan"): "heisenberg.cartan",
    ("heisenberg", "chain_through"): "heisenberg.chain_through",
    ("heisenberg", "chain_point"): "heisenberg.chain_point",
    ("heisenberg", "Chain.orthogonality_residual"): "heisenberg.orthogonality_residual",
    ("tetra", "params_from_points"): "tetra.params_from_points",
    ("tetra", "face_sample"): "tetra.face_sample",
    ("tetra", "segment_samples"): "tetra.segment_samples",
    ("complexes", "GluingScheme.edge_equations"): "complexes.edge_equations",
    ("complexes", "cartan_compatibility"): "complexes.cartan_compatibility",
    ("complexes", "symmetric_gluing_solver"): "complexes.symmetric_gluing_solver",
    ("fixtures", "build_figure_eight"): "fixtures.build_figure_eight",
    ("fixtures", "build_whitehead"): "fixtures.build_whitehead",
    ("fixtures", "cusp_analysis"): "fixtures.cusp_analysis",
    ("fixtures", "verify_figure_eight"): "fixtures.verify_figure_eight",
    ("fixtures", "verify_whitehead"): "fixtures.verify_whitehead",
    ("fixtures", "verify_picard_words"): "fixtures.verify_picard_words",
    ("report", "Report.to_jsonable"): "report.to_jsonable",
    ("report", "validate_report_json"): "report.validate_report_json",
}
SCALAR_NEW = ("scalars", "Scalar.__init__")


class MaxBits:
    """Largest numerator or denominator, in bits, of any field product."""

    def __init__(self):
        from crlink.scalars import CycloNumber

        self.kind = CycloNumber
        self.bits = 0

    def __call__(self, x):
        if not isinstance(x, self.kind):  # NotImplemented for other operands
            return
        b = max(x.den.bit_length(), max(abs(n) for n in x.nums).bit_length())
        if b > self.bits:
            self.bits = b


def make_tracer():
    max_bits = MaxBits()
    tracer = Tracer(named=NAMED, counted=[SCALAR_NEW],
                    post={("scalars", "CycloNumber.__mul__"): max_bits})
    return tracer, max_bits


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tracer, max_bits, ops, output_bytes, overhead):
    stats = tracer.stats()
    out = {}
    for name in NAMED.values():
        calls, seconds, _ = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = metric(calls / ops, "count/op")
        out[f"{name}.s"] = metric(seconds / ops, "s/op")
    out["scalars.mul.max_bits"] = metric(max_bits.bits, "bits")
    new_calls = stats.get(".".join(SCALAR_NEW), (0, 0.0, 0.0))[0]
    out["scalars.scalar_new.calls"] = metric(new_calls / ops, "count/op")
    module_self = tracer.module_self()
    for module in TRACE_MODULES:
        out[f"{module}.self_s"] = metric(module_self.get(module, 0.0) / ops, "s/op")
    out["cli.output_bytes"] = metric(output_bytes / ops, "B/op")
    out["trace.overhead_frac"] = metric(overhead, "frac")
    return out


def write_spans(tracer, path):
    origin = tracer.spans[0][4] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for span_id, parent, op, idx, t0, t1 in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                 "name": tracer.names[idx],
                                 "start": t0 - origin, "end": t1 - origin}) + "\n")


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def serve(cli, requests, replies):
    tracer = max_bits = None
    for line in requests:
        req = json.loads(line)
        cmd = req["cmd"]
        if cmd == "op":
            if tracer is not None:
                tracer.op_id += 1
            reply = run_op(cli, req["argv"])
        elif cmd == "trace_start":
            tracer, max_bits = make_tracer()
            tracer.install([sys.modules[f"crlink.{m}"] for m in TRACE_MODULES])
            reply = {}
        elif cmd == "trace_stop":
            tracer.uninstall()
            write_spans(tracer, req["span_file"])
            reply = {"metrics": per_layer_metrics(tracer, max_bits, req["ops"],
                                                  req["output_bytes"], req["overhead"]),
                     "spans": tracer.span_count, "written": len(tracer.spans)}
            tracer = None
        elif cmd == "peak_rss":
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        else:
            raise ValueError(f"unknown request {cmd!r}")
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


def main():
    # Replies get a private copy of stdout; anything else printed goes to stderr.
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    try:
        cli = import_crlink()
    except BenchError as e:
        print(f"perfbench worker: {e}", file=sys.stderr)
        return 2
    replies.write(json.dumps({"ready": True}) + "\n")
    replies.flush()
    serve(cli, sys.stdin, replies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
