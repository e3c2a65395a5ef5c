"""Reference-outcome gate: is one operation's output the recorded one?

Every check returns None when the output matches and a one-line reason
when it does not; output it cannot parse raises ValueError, which the
runner also counts as a failed operation.  References live in reference/ and were recorded by
record.py at the commit that introduced the benchmark; they describe what
crlink must keep printing, not what the benchmark computes.

- certify: exit code 0 and a byte-identical report (SHA-256).
- query-mix: exit code, check names, statuses and every non-approximate
  field identical (a digest per pooled query); every `approx` value within
  1e-9 of the value of the `exact` string next to it, relative to the size
  of that string's terms.
- mesh: vertex and polyline counts identical; coordinates within 1e-9 per
  vertex, checked through per-polyline coordinate sums (the OBJ file prints
  nine significant digits, so the tolerance also allows a few last-digit
  rounding flips per polyline).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
APPROX_TOL = 1e-9
MESH_TOL = 1e-9
MESH_ROUNDING_FLIPS = 4


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def check_certify(ref: dict, code: int, stdout: str):
    if code != ref["exit"]:
        return f"exit code {code}, want {ref['exit']}"
    if sha256(stdout) != ref["sha256"]:
        return "report differs from the reference bytes"
    return None


# ---------------------------------------------------------------------------
# query-mix
# ---------------------------------------------------------------------------

_APPROX_KEYS = ("approx", "angle_approx")


def _strip_approx(node):
    if isinstance(node, dict):
        return {k: _strip_approx(v) for k, v in node.items() if k not in _APPROX_KEYS}
    if isinstance(node, list):
        return [_strip_approx(v) for v in node]
    return node


def query_digest(code: int, stdout: str) -> str:
    """Digest of everything but the float approximations."""
    body = stdout
    if stdout.strip():
        body = json.dumps(_strip_approx(json.loads(stdout)), sort_keys=True)
    return sha256(f"{code}\n{body}")[:16]


class _SurdParser:
    """Floats from crlink's exact notation: sums of rational multiples of
    1, sqrt2, sqrt3, sqrt6 and i.  Each value carries the sum of the absolute
    sizes of its terms, the scale at which float evaluation can err."""

    _NAMES = {
        "i": (1j, 1.0),
        "sqrt2": (math.sqrt(2.0), math.sqrt(2.0)),
        "sqrt3": (math.sqrt(3.0), math.sqrt(3.0)),
        "sqrt6": (math.sqrt(6.0), math.sqrt(6.0)),
    }

    def __init__(self, text: str):
        self.tokens = []
        k = 0
        while k < len(text):
            ch = text[k]
            if ch.isspace():
                k += 1
            elif ch in "+-*/()":
                self.tokens.append(ch)
                k += 1
            elif ch.isalnum():
                j = k
                while j < len(text) and text[j].isalnum():
                    j += 1
                self.tokens.append(text[k:j])
                k = j
            else:
                raise ValueError(f"unexpected {ch!r} in {text!r}")
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of exact value")
        self.pos += 1
        return tok

    def parse(self):
        value = self._sum()
        if self._peek() is not None:
            raise ValueError(f"trailing {self._peek()!r}")
        return value

    def _sum(self):
        v, s = self._product()
        while self._peek() in ("+", "-"):
            op = self._next()
            w, t = self._product()
            v = v + w if op == "+" else v - w
            s += t
        return v, s

    def _product(self):
        v, s = self._unary()
        while self._peek() in ("*", "/"):
            op = self._next()
            w, t = self._unary()
            if op == "*":
                v, s = v * w, s * t
            else:
                v, s = v / w, s / abs(w)
        return v, s

    def _unary(self):
        if self._peek() == "-":
            self._next()
            v, s = self._unary()
            return -v, s
        tok = self._next()
        if tok == "(":
            value = self._sum()
            if self._next() != ")":
                raise ValueError("missing )")
            return value
        if tok.isdigit():
            x = float(int(tok))
            return x, abs(x)
        if tok in self._NAMES:
            return self._NAMES[tok]
        raise ValueError(f"unknown token {tok!r}")


def exact_to_complex(text: str):
    """(value, scale) of an exact string as crlink prints it."""
    v, s = _SurdParser(text).parse()
    return complex(v), s


def approx_problems(node, path="$"):
    if isinstance(node, dict):
        if "exact" in node and isinstance(node.get("approx"), dict):
            want, scale = exact_to_complex(node["exact"])
            got = complex(node["approx"]["re"], node["approx"]["im"])
            if abs(got - want) > APPROX_TOL * max(1.0, scale):
                yield f"{path}: approx {got} but exact {node['exact']!r} is {want}"
        if "angle_approx" in node and isinstance(node.get("eta"), dict):
            eta, _ = exact_to_complex(node["eta"]["exact"])
            want = math.atan2(eta.imag, eta.real)
            if abs(node["angle_approx"] - want) > APPROX_TOL:
                yield f"{path}: angle {node['angle_approx']} but eta gives {want}"
        for k, v in node.items():
            yield from approx_problems(v, f"{path}.{k}")
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from approx_problems(v, f"{path}[{k}]")


def check_query(ref_outcome: str, code: int, stdout: str):
    want_code, want_digest = ref_outcome.split(":")
    if code != int(want_code):
        return f"exit code {code}, want {want_code}"
    if query_digest(code, stdout) != want_digest:
        return "checks, statuses or exact values differ from the reference"
    for problem in approx_problems(json.loads(stdout) if stdout.strip() else None):
        return problem
    return None


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def mesh_summary(obj_text: str) -> dict:
    """Vertex count and, per polyline, its length and coordinate sums."""
    verts = []
    polylines = []
    for line in obj_text.splitlines():
        if line.startswith("v "):
            verts.append(tuple(float(x) for x in line.split()[1:4]))
        elif line.startswith("l "):
            polylines.append([int(x) - 1 for x in line.split()[1:]])
    lines = []
    for idx in polylines:
        pts = [verts[k] for k in idx]
        sums = [math.fsum(p[a] for p in pts) for a in range(3)]
        peak = max(abs(c) for p in pts for c in p)
        contiguous = idx == list(range(idx[0], idx[0] + len(idx)))
        lines.append({"first": idx[0] if contiguous else -1, "n": len(idx),
                      "sums": sums, "peak": peak})
    return {"vertices": len(verts), "polylines": lines}


def _last_digit(x: float) -> float:
    """One unit in the ninth significant digit of |x| (the OBJ precision)."""
    if x == 0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def check_mesh(ref: dict, code: int, obj_bytes: bytes):
    if code != ref["exit"]:
        return f"exit code {code}, want {ref['exit']}"
    if sha256(obj_bytes) == ref["sha256"]:
        return None
    got = mesh_summary(obj_bytes.decode())
    if got["vertices"] != ref["vertices"]:
        return f"{got['vertices']} vertices, want {ref['vertices']}"
    if len(got["polylines"]) != len(ref["polylines"]):
        return f"{len(got['polylines'])} polylines, want {len(ref['polylines'])}"
    for k, (g, w) in enumerate(zip(got["polylines"], ref["polylines"])):
        if (g["first"], g["n"]) != (w["first"], w["n"]):
            return f"polyline {k} covers other vertices than the reference"
        tol = g["n"] * MESH_TOL + MESH_ROUNDING_FLIPS * _last_digit(w["peak"])
        for axis in range(3):
            if abs(g["sums"][axis] - w["sums"][axis]) > tol:
                return f"polyline {k} axis {axis} moved by {g['sums'][axis] - w['sums'][axis]:.3g}"
    return None
