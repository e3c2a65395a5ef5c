"""Record the reference outcomes the gate compares against.

    python3 perfbench/record.py

Run once, from the root of the checkout at the commit that introduced the
benchmark, and commit perfbench/reference/.  Re-recording at a later commit
would bless whatever that commit prints, so later changes must not run it;
a change that alters output on purpose re-records in a change of its own
and says so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import gate
import querygen
import run
import worker


def record_certify(cli):
    outputs = set()
    for _ in range(2):
        code, stdout, _ = call(cli, ["verify", "all", "--json"])
        outputs.add((code, stdout))
    if len(outputs) != 1:
        raise SystemExit("verify all --json is not deterministic")
    (code, stdout), = outputs
    return {"exit": code, "sha256": gate.sha256(stdout)}


def record_mesh(cli):
    obj = run.OUT_DIR / "mesh-reference.obj"
    code, _, _ = call(cli, ["mesh", "--fixture", "fig8-scene", "--samples", "64",
                                   "-o", str(obj)])
    data = obj.read_bytes()
    obj.unlink()
    summary = gate.mesh_summary(data.decode())
    return {"exit": code, "sha256": gate.sha256(data), **summary}


def record_query_mix(cli):
    pool = querygen.catalogue()
    outcomes = {}
    for kind, payloads in pool.items():
        outcomes[kind] = []
        for k, payload in enumerate(payloads):
            code, stdout, stderr = call(cli, querygen.argv_for(kind, payload))
            if code not in (0, 1):
                raise SystemExit(f"{kind}[{k}] exits {code}: {stderr.strip()}")
            problems = list(gate.approx_problems(json.loads(stdout)))
            if problems:
                raise SystemExit(f"{kind}[{k}]: {problems[0]}")
            outcomes[kind].append(f"{code}:{gate.query_digest(code, stdout)}")
    return {"catalogue_seed": querygen.CATALOGUE_SEED,
            "catalogue_sha256": querygen.catalogue_digest(pool),
            "outcomes": outcomes}


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main():
    run.OUT_DIR.mkdir(exist_ok=True)
    cli = worker.import_crlink()
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, fn in (("certify", record_certify), ("mesh", record_mesh),
                     ("query_mix", record_query_mix)):
        ref = fn(cli)
        with open(gate.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
