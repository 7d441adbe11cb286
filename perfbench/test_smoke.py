"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench -q

Runs every workload at a tiny length, traced and untraced, and checks the
printed result against ``BENCHMARK.json``; shows that the output checks
reject a perturbed array and a mismatched signature; and shows that the
command fails without a result when the checkout holds no program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import benchlib as bl

SPEC = json.loads((bl.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_command(cwd, workload, trace):
    argv = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0.01",
        "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        bl.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        bl.PER_LAYER
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    done = run_command(bl.ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in rows]
    for row in rows:
        printed = result["metrics"][row["name"]]
        assert printed["unit"] == row["unit"]
        assert math.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0


@pytest.fixture(scope="module")
def stack():
    bl.pin_blas()
    return bl.import_stack()


def mobile_robot_trajectory():
    from repro.driver import CompilerSession

    workload = bl.seeded_variant("MobileRobot", 3)
    session = CompilerSession()
    app = session.compile(
        workload.source(), accelerators=bl.accelerators_for(workload),
        **bl.compile_args(workload),
    )
    plan = session.plan_for(app)
    results = bl.run_trajectory(
        workload, lambda i, p, s: plan.execute(inputs=i, params=p, state=s)
    )
    return workload, results


def test_reference_check_rejects_a_perturbed_output(stack):
    workload, results = mobile_robot_trajectory()
    expected = workload.reference()
    assert bl.reference_mismatch(workload, results, expected) is None
    for result in results:
        for name, value in result.outputs.items():
            result.outputs[name] = np.asarray(value) * 1.001 + 1e-3
        for name, value in result.state.items():
            result.state[name] = np.asarray(value) * 1.001 + 1e-3
    assert bl.reference_mismatch(workload, results, expected) is not None


def test_bit_check_rejects_one_ulp(stack):
    _, results = mobile_robot_trajectory()
    _, twin = mobile_robot_trajectory()
    assert bl.bit_mismatch(results, twin) is None
    name = sorted(twin[-1].outputs)[0]
    nudged = np.array(twin[-1].outputs[name], dtype=np.float64, copy=True)
    nudged.flat[0] = np.nextafter(nudged.flat[0], np.inf)
    twin[-1].outputs[name] = nudged
    assert bl.bit_mismatch(results, twin) is not None


def test_serve_check_rejects_a_mismatched_signature(stack):
    from repro.serve import Request, Response, result_signature

    outputs = {"y": np.arange(4.0)}
    response = Response(request=Request(workload="MobileRobot"), outputs=outputs,
                        signature=result_signature(outputs))
    assert bl.signature_mismatch(response, result_signature(outputs)) is None
    other = result_signature({"y": np.arange(4.0) + 1e-12})
    assert bl.signature_mismatch(response, other) is not None
    failed = Response(request=response.request, error="boom", error_kind="ServeError")
    assert bl.signature_mismatch(failed, result_signature(outputs)) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(bl.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(bl.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_command(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    last = (done.stdout.strip().splitlines() or [""])[-1]
    assert '"metrics"' not in last


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
