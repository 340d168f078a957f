"""Self-tests of the benchmark: generator determinism, DAG consistency and
the output checks.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
from pfmodel import SimConfig, enumerate_pipelines, simulate_taxonomy  # noqa: E402
from pfmodel import cli  # noqa: E402
from pfmodel.io import parse_inputs  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SMALL = {"tree": lambda s: gen.tree(40, 3, s), "chain": lambda s: gen.tree(30, 1, s),
         "dag": lambda s: gen.dag(150, 3, s)}


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_same_seed_writes_identical_files(shape, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        write_inputs({"main": SMALL[shape](7)}, d)
    for name in ("main.taxonomy.json", "main.profiles.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert SMALL[shape](7) != SMALL[shape](8)


def test_workload_inputs_are_deterministic():
    for w in WORKLOADS.values():
        if w.name != "wide-tree":  # same generator as deep-chain, only larger
            assert w.inputs(3) == w.inputs(3)


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_pipeline_paths_match_pfmodel(shape):
    inputs = SMALL[shape](1)
    bundle = parse_inputs(inputs.taxonomy, inputs.profiles)
    ours = ["/".join(f"c{i}" for i in p) for p in gen.pipeline_paths(inputs.parents)]
    assert ours == [p.path for p in enumerate_pipelines(bundle.taxonomy)]


@pytest.mark.parametrize("seed", [0, 1, 2, 42])
def test_dag_edge_probabilities_are_consistent(seed):
    inputs = gen.dag(300, 4, seed)
    assert any(len(ps) == 2 for ps in inputs.parents)
    closures = gen.ancestor_closures(inputs.parents)

    def mass(i):  # p(document in c<i>): every coin on and above it fires
        return math.prod(inputs.coins[a] for a in closures[i] | {i})

    edges = json.loads(inputs.taxonomy)["edges"]
    for e in edges:
        child, parent = int(e["child"][1:]), int(e["parent"][1:])
        assert math.isclose(e["f"], mass(child) / mass(parent), rel_tol=1e-12)
    # the simulator calibrates one coin per node and rejects inconsistent edges
    bundle = parse_inputs(inputs.taxonomy, inputs.profiles)
    simulate_taxonomy(bundle.taxonomy, bundle.profiles, SimConfig(m=1))
    assert json.loads(inputs.profiles)["overrides"]


def _output(tmp_path, inputs, *argv):
    write_inputs({"main": inputs}, tmp_path)
    out = tmp_path / "out"
    code = cli.main([argv[0], "--taxonomy", str(tmp_path / "main.taxonomy.json"),
                     "--profiles", str(tmp_path / "main.profiles.json"), *argv[1:],
                     "--out", str(out)])
    return out.read_text(), code, checks.Reference.build(inputs, 0)


def test_analyze_check_catches_a_corrupted_omega(tmp_path):
    inputs = SMALL["tree"](1)
    text, code, ref = _output(tmp_path, inputs, "analyze")
    checks.analyze_json(ref, text, code)

    data = json.loads(text)
    omega = data["pipelines"][-1]["omega"]
    omega["w00"] -= 1e-6  # still sums to 1, but off the recurrence
    omega["w01"] += 1e-6
    data["pipelines"][-1]["depth_profile"][-1]["omega"] = dict(omega)
    with pytest.raises(checks.CheckError, match="off the recurrence"):
        checks.analyze_json(ref, json.dumps(data), code)

    omega["w11"] += 1e-6
    data["pipelines"][-1]["depth_profile"][-1]["omega"] = dict(omega)
    with pytest.raises(checks.CheckError, match="sums to"):
        checks.analyze_json(ref, json.dumps(data), code)

    del data["pipelines"][3]
    with pytest.raises(checks.CheckError, match="pipeline set"):
        checks.analyze_json(ref, json.dumps(data), code)


def test_tsv_check_catches_a_corrupted_omega(tmp_path):
    text, code, ref = _output(tmp_path, SMALL["chain"](1), "analyze", "--format", "tsv")
    checks.analyze_tsv(ref, text, code)
    lines = text.split("\n")
    cells = lines[-2].split("\t")
    cells[3] = repr(float(cells[3]) - 1e-6)
    cells[4] = repr(float(cells[4]) + 1e-6)
    lines[-2] = "\t".join(cells)
    with pytest.raises(checks.CheckError, match="off the recurrence"):
        checks.analyze_tsv(ref, "\n".join(lines), code)


def test_simulate_check_catches_wrong_counts(tmp_path):
    text, code, ref = _output(tmp_path, SMALL["dag"](1), "simulate", "--m", "200")
    checks.simulate(ref, text, code, m=200)
    data = json.loads(text)
    data["runs"][5]["counts"]["tp"] += 1
    with pytest.raises(checks.CheckError, match="do not sum to m"):
        checks.simulate(ref, json.dumps(data), code, m=200)
    with pytest.raises(checks.CheckError, match="exit code"):
        checks.simulate(ref, text, 2 if code == 0 else 0, m=200)


def test_headline_operations_come_first_on_the_main_input(tmp_path):
    from workloads import Workload

    w = Workload("t", SMALL["dag"], ("simulate", "analyze_tsv"), sim_m=10, one_m=10,
                 sweep_n=10, small=SMALL["chain"])
    ops = w.ops(w.inputs(1), tmp_path)
    assert [op.key for op in ops[:2]] == ["analyze_tsv", "simulate"]
    assert all(op.tag == ("main" if op.headline else "small") for op in ops)
    one = next(op for op in ops if op.key == "simulate_one")
    assert one.params["path"] == gen.deepest_path(SMALL["chain"](1).parents)
