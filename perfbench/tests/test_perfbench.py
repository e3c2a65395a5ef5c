"""Tests of the benchmark itself: generator, gate, tracer and worker.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import querygen  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def pool():
    return querygen.catalogue()


def _call(argv):
    from crlink import cli

    code, out, _ = record.call(cli, argv)
    return code, out


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic_and_matches_the_recorded_pool(pool):
    a = querygen.catalogue(123)
    b = querygen.catalogue(123)
    assert json.dumps(a) == json.dumps(b)
    assert querygen.catalogue_digest(a) != querygen.catalogue_digest(pool)
    recorded = gate.load_reference("query_mix")["catalogue_sha256"]
    assert querygen.catalogue_digest(pool) == recorded


def test_stream_depends_only_on_the_seed(pool):
    def head(seed, n=200):
        s = querygen.stream(seed, pool)
        return [querygen.argv_for(k, pool[k][i]) for k, i in (next(s) for _ in range(n))]

    assert head(5) == head(5)
    assert head(5) != head(6)


@pytest.mark.parametrize("ring", ["i", "w"])
def test_generator_matrices_are_form_unitary(ring):
    gens = querygen.GOLDEN["i" if ring == "i" else "omega"]
    identity = [[(1, 0) if i == j else (0, 0) for j in range(3)] for i in range(3)]
    for m in gens.values():
        assert querygen.mat_mul(ring, querygen.mat_inverse(ring, m), m) == identity


def test_generated_tetrahedra_have_no_triple_on_a_chain():
    origin, one = ((0, 0), 0), ((1, 0), 0)
    assert querygen.on_chain("inf", origin, ((0, 0), 5))  # the vertical chain
    assert not querygen.on_chain("inf", origin, one)


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def test_gate_catches_a_one_character_edit_to_certify():
    ref = gate.load_reference("certify")
    code, out = _call(["verify", "all", "--json"])
    assert gate.check_certify(ref, code, out) is None
    k = out.index('"pass"')
    edited = out[:k] + '"fass"' + out[k + 6:]
    assert len(edited) == len(out)
    assert gate.check_certify(ref, code, edited) is not None


def _obj(coords):
    lines = [f"v {x:.9g} {y:.9g} {t:.9g}" for x, y, t in coords]
    lines.append("l " + " ".join(str(k + 1) for k in range(len(coords))))
    return ("\n".join(lines) + "\n").encode()


def test_gate_catches_a_micro_shift_in_a_mesh_coordinate():
    coords = [(0.01 * k, -0.0113 * k, 3.73205081 - 0.0062 * k) for k in range(256)]
    data = _obj(coords)
    ref = {"exit": 0, "sha256": gate.sha256(data), **gate.mesh_summary(data.decode())}
    assert gate.check_mesh(ref, 0, data) is None

    shifted = list(coords)
    x, y, t = shifted[100]
    shifted[100] = (x, y, t + 1e-6)
    assert gate.check_mesh(ref, 0, _obj(shifted)) is not None

    flipped = data.decode().replace("v 1 -1.13 3.11205081", "v 1 -1.13 3.11205082")
    assert flipped != data.decode()
    assert gate.check_mesh(ref, 0, flipped.encode()) is None  # print rounding only


def test_query_gate_checks_statuses_and_approximations(pool):
    payload = pool["cartan"][0]
    code, out = _call(querygen.argv_for("cartan", payload))
    ref = f"{code}:{gate.query_digest(code, out)}"
    assert gate.check_query(ref, code, out) is None
    assert gate.check_query(gate.load_reference("query_mix")["outcomes"]["cartan"][0],
                            code, out) is None

    data = json.loads(out)
    eta = data["checks"][0]["witness"]["eta"]
    _, scale = gate.exact_to_complex(eta["exact"])
    eta["approx"]["re"] += 1e-6 * max(1.0, scale)
    assert gate.check_query(ref, code, json.dumps(data)) is not None
    data = json.loads(out)
    data["checks"][0]["status"] = "fail"
    assert gate.check_query(ref, code, json.dumps(data)) is not None


def test_exact_strings_evaluate_with_their_term_scale():
    value, scale = gate.exact_to_complex("1/2 - i*(3/2*sqrt3 + 1)")
    assert value == pytest.approx(complex(0.5, -(1.5 * 3 ** 0.5 + 1)))
    assert scale == pytest.approx(0.5 + 1.5 * 3 ** 0.5 + 1)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def _toy_modules(clock):
    a = types.ModuleType("toy.a")
    b = types.ModuleType("toy.b")
    b.__dict__["tick"] = clock.tick
    exec(
        "def inner():\n    tick(3)\n    helper()\n    leaf()\n    tick(1)\n"
        "def helper():\n    tick(2)\n"
        "def leaf():\n    tick(5)\n",
        b.__dict__,
    )
    a.__dict__.update(tick=clock.tick, inner=b.inner)
    exec("def outer():\n    tick(1)\n    inner()\n    tick(2)\n", a.__dict__)
    return a, b


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    a, b = _toy_modules(clock)
    tracer = Tracer(named={("b", "leaf"): "b.leaf"}, clock=clock).install([a, b])
    tracer.op_id = 0
    a.outer()
    tracer.uninstall()

    stats = tracer.stats()
    # outer = 1 + inner(3 + helper 2 + leaf 5 + 1) + 2
    assert stats["a.outer"] == (1, 14.0, 3.0)
    assert stats["b.inner"] == (1, 11.0, 6.0)  # helper stays inside b: no span
    assert stats["b.leaf"] == (1, 5.0, 5.0)
    assert stats["b.helper"][0] == 0
    assert tracer.module_self() == {"a": 3.0, "b": 11.0}

    spans = {tracer.names[idx]: (sid, parent, op) for sid, parent, op, idx, _, _ in tracer.spans}
    assert spans["a.outer"][1] == -1
    assert spans["b.inner"][1] == spans["a.outer"][0]
    assert spans["b.leaf"][1] == spans["b.inner"][0]
    assert {op for _, _, op in spans.values()} == {0}


def test_post_hook_time_is_left_out_of_every_span():
    clock = FakeClock()
    a, b = _toy_modules(clock)
    seen = []

    def hook(result):
        seen.append(result)
        clock.tick(7)  # the hook's own cost must not show anywhere

    tracer = Tracer(named={("b", "leaf"): "b.leaf"}, post={("b", "leaf"): hook},
                    clock=clock).install([a, b])
    a.outer()
    tracer.uninstall()

    stats = tracer.stats()
    assert seen == [None]
    assert stats["a.outer"] == (1, 14.0, 3.0)
    assert stats["b.inner"] == (1, 11.0, 6.0)
    assert stats["b.leaf"] == (1, 5.0, 5.0)
    assert tracer.module_self() == {"a": 3.0, "b": 11.0}


def test_max_bits_ignores_products_that_are_not_field_elements():
    from crlink.scalars import constant

    max_bits = worker.MaxBits()
    max_bits(NotImplemented)  # __mul__ defers to Scalar.__rmul__ for other operands
    assert max_bits.bits == 0
    max_bits(constant("omega") * 1000)
    assert max_bits.bits == 10


def test_worker_runs_operations_like_an_in_process_call(pool):
    argv = querygen.argv_for("cartan", pool["cartan"][0])
    w = run.Worker()
    try:
        reply = w.ask("op", argv=argv)
        rss = w.ask("peak_rss")["peak_rss_mb"]
    finally:
        w.close()
    assert w.proc.returncode == 0
    assert (reply["code"], reply["stdout"]) == _call(argv)
    assert reply["error"] is None and reply["elapsed"] > 0
    assert rss > 0


def test_wrappers_cover_aliases_and_restore_the_originals(pool):
    import crlink.cli  # noqa: F401

    modules = [sys.modules[f"crlink.{m}"] for m in worker.TRACE_MODULES]
    containers = modules + [v for m in modules for v in vars(m).values()
                            if isinstance(v, type) and v.__module__ == m.__name__]
    before = {(id(c), k): v for c in containers for k, v in vars(c).items()}
    scalars, isometry, fixtures, cli = (sys.modules[f"crlink.{m}"] for m in
                                        ("scalars", "isometry", "fixtures", "cli"))
    classify = isometry.classify
    payload = pool["classify"][0]
    plain = _call(querygen.argv_for("classify", payload))

    tracer, _ = worker.make_tracer()
    tracer.install(modules)
    try:
        assert isometry.classify is not classify
        assert fixtures.classify is isometry.classify is cli.classify
        cyclo = vars(scalars.CycloNumber)
        assert cyclo["__rmul__"] is cyclo["__mul__"]
        assert cli._SUITES["fig8"] is fixtures.verify_figure_eight
        traced = _call(querygen.argv_for("classify", payload))
    finally:
        tracer.uninstall()

    assert traced == plain
    assert tracer.stats()["isometry.classify"][0] == 1
    after = {(id(c), k): v for c in containers for k, v in vars(c).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert cli._SUITES["fig8"] is fixtures.verify_figure_eight


def test_per_layer_names_match_the_benchmark_definition():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer, max_bits = worker.make_tracer()
    produced = worker.per_layer_metrics(tracer, max_bits, 1, 0, 0.0)
    assert set(produced) == {m["name"] for m in spec["per_layer"]}
    assert {n: produced[n]["unit"] for n in produced} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
