"""Command-line front end.

    crlink verify {fig8|whitehead|picard-words|all} [--json]
    crlink query {cartan|params|classify|word|glue} [--input FILE | --inline JSON]
    crlink mesh [--input FILE | --fixture {standard,whitehead,fig8-scene}]
                [--samples N] [-o out.obj]

Certification output is always exact; float numbers are labelled
approximations.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional

from .scalars import ParseError, SettingError, UnknownConstantError, parse_scalar
from .heisenberg import (
    DEFAULT_FLOAT_TOL,
    GeometryError,
    approx_point_from_json,
    cartan,
    eta_approx,
    hpoint_from_json,
)
from .isometry import (
    Mat3,
    ProjIsometry,
    WordError,
    classify,
    eval_word,
    matrix_in_ring,
)
from .tetra import (
    FACES,
    Tetrahedron,
    face_sample,
    params_from_points,
    segment_samples,
)
from .complexes import CycleStart, FacePairing, GluingScheme, cartan_compatibility
from .fixtures import (
    fig8_golden_matrices,
    fig8_realized_scheme,
    picard_generators,
    verify_all,
    verify_figure_eight,
    verify_picard_words,
    verify_whitehead,
    whitehead_golden_matrices,
    whitehead_vertices,
)
from .report import Report, validate_report_json
from .tetra import TetraParams

USAGE_EXIT = 2


class CliError(Exception):
    def __init__(self, message, code=USAGE_EXIT):
        super().__init__(message)
        self.code = code


def _read_payload(args) -> dict:
    if getattr(args, "inline", None):
        try:
            return json.loads(args.inline)
        except json.JSONDecodeError as e:
            raise CliError(f"inline JSON: {e}")
    if getattr(args, "input", None):
        try:
            with open(args.input) as fh:
                return json.load(fh)
        except OSError as e:
            raise CliError(f"cannot read {args.input}: {e}")
        except json.JSONDecodeError as e:
            raise CliError(f"{args.input}: {e}")
    raise CliError("need --input FILE or --inline JSON")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_SUITES = {
    "fig8": verify_figure_eight,
    "whitehead": verify_whitehead,
    "picard-words": verify_picard_words,
}


def cmd_verify(args) -> int:
    if args.target == "all":
        reports = verify_all()
    else:
        reports = [_SUITES[args.target]()]
    if args.json:
        payload = [r.to_jsonable() for r in reports]
        for data in payload:
            problems = validate_report_json(data)
            if problems:  # schema self-check; should never trip
                raise CliError(f"internal report schema violation: {problems}", 1)
        print(json.dumps(payload if len(payload) > 1 else payload[0], indent=2))
    else:
        for r in reports:
            print(r.render())
            print()
    return max(r.exit_status for r in reports)


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def _fixture_env(name: str) -> Dict[str, ProjIsometry]:
    if name == "fig8":
        env = {k: ProjIsometry(m) for k, m in fig8_golden_matrices().items() if k.startswith("G")}
        env.update(picard_generators())
        return env
    if name == "whitehead":
        return {
            k: ProjIsometry(m)
            for k, m in whitehead_golden_matrices().items()
            if k.startswith("G")
        }
    if name == "picard":
        return picard_generators()
    raise CliError(f"unknown fixture {name!r}; want fig8, whitehead or picard")


def _parse_matrix(data) -> ProjIsometry:
    if not isinstance(data, dict) or "matrix" not in data:
        raise CliError('matrix payload needs {"matrix": [[...]x3], "holo": bool}')
    rows = data["matrix"]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise CliError("matrix must be 3x3")
    cells = [[parse_scalar(x) for x in row] for row in rows]
    return ProjIsometry(Mat3(cells), bool(data.get("holo", True)))


def _parse_tetra(data) -> Tetrahedron:
    want = ("p1", "p2", "q1", "q2")
    if not isinstance(data, dict) or not all(k in data for k in want):
        raise CliError("tetra payload needs points p1, p2, q1, q2")
    pts = [hpoint_from_json(data[k]) for k in want]
    flags = {
        frozenset(tuple(k.split("-"))): v
        for k, v in data.get("edge_flags", {}).items()
    }
    return Tetrahedron(*pts, edge_flags=flags)


def _approx_out(z: complex) -> dict:
    return {"approx": {"re": z.real, "im": z.imag}}


def _scalar_out(x) -> dict:
    return {"exact": str(x), **_approx_out(x.to_complex())}


_RIGHT_ANGLE_NOTE = "invariant is +-pi/2 (triple lies on a chain)"


def _cartan_float(points, tol: float) -> dict:
    """The cartan witness evaluated in machine arithmetic: approximations only."""
    eta = eta_approx(*(approx_point_from_json(p, tol) for p in points), tol=tol)
    out = {"eta": _approx_out(eta), "angle_approx": math.atan2(eta.imag, eta.real)}
    if abs(eta.real) <= tol:
        out["note"] = _RIGHT_ANGLE_NOTE
    else:
        out["tan"] = _approx_out(complex(eta.imag / eta.real))
    return out


def cmd_query(args) -> int:
    payload = _read_payload(args)
    rep = Report(f"query {args.kind}")
    if args.backend != "exact" and args.kind != "cartan":
        raise CliError(
            "only the cartan query supports the float backend; "
            "certification queries run exactly"
        )
    try:
        if args.kind == "cartan" and args.backend != "exact":
            rep.info("cartan invariant", _cartan_float(payload["points"], args.tol))
        elif args.kind == "cartan":
            tp = cartan(*(hpoint_from_json(p) for p in payload["points"]))
            out = {"eta": _scalar_out(tp.eta), "angle_approx": tp.angle()}
            if tp.is_right_angle():
                out["note"] = _RIGHT_ANGLE_NOTE
            else:
                out["tan"] = _scalar_out(tp.tan())
            rep.info("cartan invariant", out)
        elif args.kind == "params":
            tet = _parse_tetra(payload)
            params = params_from_points(tet)
            rep.info("tetrahedron parameters", params.summary())
            rep.add("symmetric (t = s)", params.is_symmetric())
        elif args.kind == "classify":
            g = _parse_matrix(payload)
            cls = classify(g)
            rep.info("classification", {
                "kind": str(cls),
                "discriminant": _scalar_out(cls.discriminant),
                "trace": _scalar_out(g.matrix.trace()),
                "rings": {
                    r: matrix_in_ring(g, r) for r in ("Z", "Z[i]", "Z[omega]")
                },
            })
        elif args.kind == "word":
            env = {}
            if payload.get("fixture"):
                env.update(_fixture_env(payload["fixture"]))
            for name, mdata in payload.get("generators", {}).items():
                env[name] = _parse_matrix(mdata)
            g = eval_word(payload["word"], env)
            rep.info("word value", {
                "matrix": [[_scalar_out(x) for x in row] for row in g.matrix.rows],
                "holomorphic": g.holo,
                "classification": str(classify(g)) if g.holo else "anti-holomorphic",
            })
        elif args.kind == "glue":
            scheme = scheme_from_json(payload)
            _glue_checks(scheme, payload, rep)
        else:  # pragma: no cover - argparse restricts choices
            raise CliError(f"unknown query kind {args.kind}")
    except (KeyError, TypeError) as e:
        raise CliError(f"bad payload for {args.kind}: {e}")
    _emit(rep, args.json)
    return rep.exit_status


def _glue_checks(scheme: GluingScheme, payload: dict, rep: Report):
    params: Dict[str, TetraParams] = {}
    for tdata in payload.get("tetrahedra", []):
        name = tdata["name"]
        if "params" in tdata and tdata["params"]:
            p = tdata["params"]
            params[name] = TetraParams.from_zts(
                parse_scalar(p["z"]), parse_scalar(p["t"]), parse_scalar(p["s"])
            )
        elif name in scheme.vertices:
            params[name] = params_from_points(scheme.vertices[name])
    if scheme.vertices:
        for item in scheme.pairing_invariants():
            rep.add(f"paired faces eta-equal: {item['pairing']}", item["equal"])
    eqs = scheme.edge_equations(params if len(params) == len(scheme.tetrahedra) else None)
    for eq in eqs:
        label = f"edge cycle {eq.cycle_index} endpoint {eq.endpoint_index}"
        witness = {"product form": eq.raw_form()}
        if eq.simplified:
            witness["simplified"] = eq.simplified
        if eq.product is not None:
            witness["value"] = _scalar_out(eq.product)
            rep.add(f"{label}: product = 1", bool(eq.holds()), witness)
        else:
            rep.info(label, witness)
    if len(scheme.tetrahedra) == 2 and len(params) == 2:
        names = scheme.tetrahedra
        compat = cartan_compatibility(params[names[0]], params[names[1]])
        for c in compat:
            suffix = "" if c["independent"] else " (dependent via cocycle)"
            rep.add(
                f"invariant compatibility {c['constraint']}{suffix}",
                c["holds"],
                _scalar_out(c["residual"]),
            )


def scheme_from_json(payload: dict) -> GluingScheme:
    tets = []
    vertices = {}
    letters = {}
    for tdata in payload.get("tetrahedra", []):
        name = tdata["name"]
        tets.append(name)
        if tdata.get("letter"):
            letters[name] = tdata["letter"]
        if tdata.get("vertices"):
            vdata = tdata["vertices"]
            vertices[name] = Tetrahedron(
                *(hpoint_from_json(vdata[k]) for k in ("p1", "p2", "q1", "q2"))
            )
    pairings = []
    for p in payload.get("pairings", []):
        src_tet, src_face = p["from"][0], tuple(p["from"][1])
        dst_tet, dst_face = p["to"][0], tuple(p["to"][1])
        vmap = p.get("vertexMap")
        if vmap:
            if sorted(vmap) != sorted(src_face) or sorted(vmap.values()) != sorted(dst_face):
                raise CliError(f"vertexMap does not match the paired faces: {p}")
            dst_face = tuple(vmap[v] for v in src_face)
        pairings.append(FacePairing(src_tet, src_face, dst_tet, dst_face))
    starts = [
        CycleStart(
            s["tet"], tuple(s["edge"]), s["endpoint"], tuple(s["exit_face"])
        )
        for s in payload.get("cycle_starts", [])
    ]
    return GluingScheme(
        tets,
        pairings,
        letters=letters,
        vertices=vertices,
        cycle_starts=starts,
    )


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def _mesh_tetrahedra(args) -> List[Tetrahedron]:
    if getattr(args, "fixture", None):
        if args.fixture == "standard":
            return [fig8_realized_scheme().vertices["T"]]
        if args.fixture == "whitehead":
            v = whitehead_vertices()
            return [Tetrahedron(v["p1"], v["p2"], v["q1"], v["q2"])]
        if args.fixture == "fig8-scene":
            tets = fig8_realized_scheme().vertices
            return [tets["T"], tets["U"]]
        raise CliError(f"unknown fixture {args.fixture!r}")
    payload = _read_payload(args)
    return [_parse_tetra(payload)]


def cmd_mesh(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be a positive integer, got {args.samples}")
    tets = _mesh_tetrahedra(args)
    blocks_v: List[str] = []  # one block of vertex lines per polyline
    lines_l: List[str] = []
    offset = 1

    def polyline(points):
        nonlocal offset
        blocks_v.append("\n".join(f"v {x:.9g} {y:.9g} {t:.9g}" for x, y, t in points.tolist()))
        if len(points) >= 2:
            lines_l.append("l " + " ".join(map(str, range(offset, offset + len(points)))))
        offset += len(points)

    n = args.samples
    for tet in tets:
        for apex, edge in FACES:
            for pl in face_sample(tet, apex, edge, n).polylines:
                polyline(pl)
            polyline(segment_samples(tet[edge[0]], tet[edge[1]], max(2, 4 * n)))
    content = "\n".join(blocks_v + lines_l) + "\n"
    try:
        if args.output == "-":
            sys.stdout.write(content)
        else:
            with open(args.output, "w") as fh:
                fh.write(content)
    except OSError as e:
        raise CliError(f"cannot write {args.output}: {e}", 1)
    if args.output != "-":
        print(f"wrote {args.output}: {offset - 1} vertices, {len(lines_l)} polylines")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _emit(rep: Report, as_json: bool):
    if as_json:
        data = rep.to_jsonable()
        problems = validate_report_json(data)
        if problems:
            raise CliError(f"internal report schema violation: {problems}", 1)
        print(json.dumps(data, indent=2))
    else:
        print(rep.render())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crlink",
        description="Exact spherical CR structures on link complements: "
        "verification suites, geometry queries, and face meshes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify", help="run a fixture verification suite")
    vp.add_argument("target", choices=["fig8", "whitehead", "picard-words", "all"])
    vp.add_argument("--json", action="store_true", help="machine-readable report")
    vp.set_defaults(func=cmd_verify)

    qp = sub.add_parser("query", help="evaluate one geometric query")
    qp.add_argument("kind", choices=["cartan", "params", "classify", "word", "glue"])
    qp.add_argument("--input", help="JSON input file")
    qp.add_argument("--inline", help="JSON input inline")
    qp.add_argument("--json", action="store_true")
    qp.add_argument("--backend", choices=["exact", "float"], default="exact")
    qp.add_argument("--tol", type=float, default=DEFAULT_FLOAT_TOL)
    qp.set_defaults(func=cmd_query)

    mp = sub.add_parser("mesh", help="export sampled faces as OBJ polylines")
    mp.add_argument("--input", help="tetra JSON input file")
    mp.add_argument("--inline", help="tetra JSON inline")
    mp.add_argument(
        "--fixture", choices=["standard", "whitehead", "fig8-scene"], default=None
    )
    mp.add_argument("--samples", type=int, default=64)
    mp.add_argument("-o", "--output", default="faces.obj")
    mp.set_defaults(func=cmd_mesh)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_EXIT if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (
        ParseError,
        GeometryError,
        WordError,
        UnknownConstantError,
        SettingError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
