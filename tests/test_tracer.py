"""The benchmark's layer tracer still finds what it reads in the library.

`perfbench/tracer.py` wraps `wberg` functions and methods from outside the
package and reads fields of their results (`DefectResult.r_trace`,
`Operator.mat`, ...).  A refactor that drops one of them would otherwise only
show as a failing `--trace 1` benchmark run.
"""

import importlib.util
from pathlib import Path

import wberg.pipelines  # noqa: F401  (the tracer patches every layer module)
from wberg.config import parse_case
from wberg.corpus import corpus_cases
from wberg.linalg import Operator
from wberg.pipelines import run_case

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_records_dilation_and_charfn_spans():
    tracer = _load_tracer()()
    cases = {c["name"]: c for c in corpus_cases()}
    tracer.install()
    try:
        for name in ("nilpotent-pair-hardy", "charfn-nilpotent-bergman2"):
            data = dict(cases[name], run=[s for s in cases[name]["run"]
                                          if s in ("dilate-pure", "charfn")])
            ok, _ = run_case(parse_case(data, name=name))
            assert ok
        # PSD checks take arrays; the patched method still serves input data
        assert Operator([[1.0, 0.5j], [-0.5j, 2.0]]).is_hermitian(1e-12)
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert stats["hyper.defect_limit"]["calls"] > 0
    assert stats["hyper.defect_limit"]["grid_levels"] == stats["hyper.defect_limit"]["calls"]
    assert stats["linalg.Operator.init"]["calls"] > 0
    assert stats["linalg.Operator.init"]["bytes"] > 0
    assert stats["dilation.pure_dilation"]["calls"] == 1
    assert stats["charfn.partial_isometry_check"]["calls"] == 1
    # the key identity is one grid call that evaluates its 25 distinct points
    # in one stacked evaluation of its own; coincidence_verify evaluates its
    # 3 points once for each of the 2 functions
    assert stats["charfn.key_identity_check"]["calls"] == 1
    assert stats["charfn.char_function_eval"]["calls"] == 2
    assert stats["linalg.Operator.is_hermitian"]["calls"] == 1
    # uninstall restores the originals
    from wberg import hyper

    assert not hasattr(hyper.defect_limit, "__wrapped__")


def test_tracer_records_hereditary_spans():
    import numpy as np

    from wberg import hyper

    tracer = _load_tracer()()
    data = {"name": "fractional-random-pair", "weights": "bergman:1.5,bergman:2.5",
            "tuple": "random-contraction:3:4:2:0.3", "run": ["check"]}
    case = parse_case(data, name=data["name"])
    t = case.build_tuple(None)
    tracer.install()
    try:
        ok, _ = run_case(case)
        # the one-shot sum keeps its signature: the tracer reads `args[1].mat`
        coeffs = np.array([1.0, -0.5, 0.25])
        hyper.hereditary_apply(coeffs, t[0], np.eye(t.dim, dtype=complex))
    finally:
        tracer.uninstall()
    assert ok
    stats = tracer.stats
    assert stats["hyper.is_W_hypercontraction"]["calls"] == 1
    assert stats["hyper.is_W_hypercontraction"]["certificates"] > 0
    assert stats["hyper.defect_series"]["calls"] > 0
    # classification sums read the tuple's stacks, not the one-shot path
    assert stats["hyper.hereditary_apply"]["calls"] == 1
    assert stats["hyper.hereditary_apply"]["terms"] == 3
    assert stats["hyper.hereditary_apply"]["flops"] > 0


def test_tracer_records_series_product():
    tracer = _load_tracer()()
    cases = {c["name"]: c for c in corpus_cases()}
    data = dict(cases["series-hardy-cube"], run=["series"])
    tracer.install()
    try:
        ok, _ = run_case(parse_case(data, name=data["name"]))
    finally:
        tracer.uninstall()
    assert ok
    # the residual k * (1/k) - 1 is one patched method call
    assert tracer.stats["series.TruncatedSeries.mul"]["calls"] == 1
    assert tracer.stats["pipelines.run_series"]["calls"] == 1
