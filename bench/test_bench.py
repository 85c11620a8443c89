"""Tests of the benchmark itself (not of wco).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _generated(seed: int) -> str:
    return json.dumps(
        {
            "cli": inputs.cli_pool(seed),
            "report": inputs.report_pool(seed),
            "sweep": inputs.sweep_configs(seed),
        },
        default=repr,
    )


def test_same_seed_gives_identical_inputs():
    assert _generated(7).encode() == _generated(7).encode()


def test_different_seeds_give_different_inputs():
    assert _generated(7) != _generated(8)


@pytest.mark.parametrize("seed", range(6))
def test_every_seed_stays_in_its_regime(seed):
    assert inputs.describe("report-large", seed)["subnormal_coeffs"] == 0
    assert inputs.describe("sweep-grid", seed)["subnormal_coeffs"] > 0


def test_regime_guard_refuses_a_crossed_workload():
    with pytest.raises(SystemExit):
        inputs.check_regime("report-large", {"subnormal_coeffs": 3})
    with pytest.raises(SystemExit):
        inputs.check_regime("sweep-grid", {"subnormal_coeffs": 0})


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_latency([1.0] * 10) is None
    percentile, value = run.tail_latency([float(x) for x in range(1, 12)])
    assert value == 1.0 and percentile == pytest.approx(100.0 / 11)
    samples = [float(x) for x in range(60, 0, -1)]
    percentile, value = run.tail_latency(samples)
    assert value == 50.0  # 51..60 lie beyond it
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100.0 * 50 / 60)


def test_self_time_subtracts_the_children():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 7.0, 0]]
    assert tracing.self_times(spans)[0] == 4.0


def test_strict_json_rejects_nan_and_infinity():
    for text in ('{"r": NaN}', '{"r": Infinity}', '[-Infinity]'):
        with pytest.raises(ValueError):
            inputs.strict_json_loads(text)
    assert inputs.strict_json_loads('{"r": 1e-300}') == {"r": 1e-300}


def test_a_nan_report_is_a_failed_operation():
    cand = inputs.cli_pool(0)[0]
    rc = 0 if cand["hospitable"] else 1
    out = json.dumps({"pass": cand["hospitable"], "checks": [{"name": "x", "pass": True, "residual": float("nan")}]})
    reason = inputs.check_verdict(cand, rc, out)
    assert reason is not None and "strict JSON" in reason


def test_import_time_goes_to_the_outermost_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |       numpy.typing",
        "import time:       200 |        230 |     scipy.special",
        "import time:        10 |        390 |   wco.spaces",
        "import time:         5 |        395 | wco",
    ])
    assert tracing.outermost_import_times(stderr, "numpy", ("scipy",)) == pytest.approx(150e-6)
    assert tracing.outermost_import_times(stderr, "scipy", ("numpy",)) == pytest.approx(230e-6)
    assert tracing.outermost_import_times(stderr, "wco") == pytest.approx(395e-6)


def test_install_rebinds_every_holder_and_uninstall_restores():
    src = HERE.parent / "src"
    if not (src / "wco").is_dir():
        pytest.skip("no program in this checkout")
    sys.path.insert(0, str(src))
    import wco.operators
    import wco.series

    original = wco.series.compose_poly
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wco.series.compose_poly is not original
        assert wco.operators.compose_poly is wco.series.compose_poly
        one = wco.series.one(3)
        tracer.op("probe", lambda: wco.operators.compose_poly(one, one * one))
    finally:
        tracer.uninstall()
    assert wco.series.compose_poly is original
    assert wco.operators.compose_poly is original
    totals = tracer.layer_totals()
    assert totals["series.compose_poly"]["calls"] == 1
    assert totals["series.mul"]["calls"] >= 2
