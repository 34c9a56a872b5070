"""Byte-for-byte CLI documents on the reference scenario and its variants.

The files under ``tests/golden/`` are the stdout of each subcommand on
``scenarios/default.scn`` and of ``case`` and ``sweep`` on the variant
scenarios next to them (ideal source, line-line, downstream relay).  They
pin the current behaviour for refactors; a refactor that changes a byte
must explain the change, not regenerate them.  The 132 documents the
benchmark's in-process workloads make from its seeds 1-3 are pinned by one
digest, and the layer harness that computes it counts opcodes repeatably.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from admrelay import cli
from admrelay.scenario import default_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "default.scn"
GOLDEN = Path(__file__).resolve().parent / "golden"
# tools/ab_layers.py's digest of the sweep-, trajectory- and dcb-study
# documents of seeds 1-3, as every BENCH_*.json since BENCH_18.json records it
BENCHMARK_DIGEST = "70814657ee9275b88af52ea15845e7f47e23a85d6b6de4ced9a20ab766e31bce"

DOCUMENTS = {
    "validate": ["validate"],
    "case2": ["case", "--case", "2"],
    "sweep": ["sweep"],
    "dcb": ["dcb"],
    "trajectory": ["trajectory"],
}
# golden file stem -> (variant scenario under tests/golden/, subcommand arguments)
VARIANT_DOCUMENTS = {}
for variant, case in (("ideal", 1), ("downstream-lg", 3), ("ll-ideal", 4), ("ll", 5),
                      ("downstream-ll", 6)):
    VARIANT_DOCUMENTS[f"{variant}.case{case}"] = (variant, ["case", "--case", str(case)])
    VARIANT_DOCUMENTS[f"{variant}.sweep"] = (variant, ["sweep"])


def _matches_golden(name, scenario, argv, tmp_path):
    command, *extra = argv
    out = tmp_path / f"{name}.txt"
    assert cli.main([command, str(scenario), *extra, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_default_scenario_documents_match_goldens(name, tmp_path):
    _matches_golden(name, SCENARIO, DOCUMENTS[name], tmp_path)


@pytest.mark.parametrize("name", sorted(VARIANT_DOCUMENTS))
def test_variant_scenario_documents_match_goldens(name, tmp_path):
    variant, argv = VARIANT_DOCUMENTS[name]
    _matches_golden(name, GOLDEN / f"{variant}.scn", argv, tmp_path)


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def ab_layers(monkeypatch):
    # bench/gen.py is imported as it stands, and no bytecode is written beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "gen", _load(ROOT / "bench" / "gen.py"))
    return _load(ROOT / "tools" / "ab_layers.py")


def test_benchmark_documents_keep_their_digest(ab_layers):
    assert ab_layers._documents_digest() == BENCHMARK_DIGEST


def test_the_layer_harness_counts_opcodes_exactly(ab_layers):
    _, setup, run = ab_layers._layers()["op.dcb-study"]()
    first, second = (ab_layers._counts(setup, run) for _ in range(2))  # opcodes, C calls
    assert first == second and min(first) > 0


def test_the_benchmark_tracer_resolves_every_layer_and_puts_each_back(monkeypatch):
    # bench/tracing.py looks up every LAYERS name in src and keys systems by
    # Matrix.tobytes(); a renamed or removed name fails here, not only in CI's
    # traced runs
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _load(ROOT / "bench" / "tracing.py")
    layers = {modname: importlib.import_module(f"admrelay.{modname}") for modname in tracing.LAYERS}
    modules = {name: module for name, module in sys.modules.items()
               if name == "admrelay" or name.startswith("admrelay.")}
    before = {(name, attr): value for name, module in modules.items()
              for attr, value in vars(module).items()}
    cases = dict(cli.CASES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for modname, functions in tracing.LAYERS.items():
            for name in functions:
                wrapper = getattr(layers[modname], name)
                assert wrapper is not before[(f"admrelay.{modname}", name)], (modname, name)
        tracer.op(cli.run_sweep, default_scenario())
        assert tracer.dump()["distinct_systems"] == 1
    finally:
        tracer.uninstall()
    for (name, attr), value in before.items():
        assert getattr(modules[name], attr) is value, (name, attr)
    assert all(cli.CASES[number] is entry for number, entry in cases.items())
