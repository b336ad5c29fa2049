"""wberg benchmark: one workload, closed loop with one client, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
measures the per-layer metrics of `tracer.py` and `trace.overhead`.  The
last line of stdout is the result object; the line before it holds the
details (environment, sample counts, failing cases by name).  See README.md
for the workloads, the metrics and the settings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Fresh processes timed for setup_s, the workload's own process included.
SETUP_SAMPLES = 7
# The whole run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170.0
# Case times are rescaled to a machine on which the worker's calibration
# kernel takes this long (about its time on the shared 2-core x86-64 VM the
# baseline was measured on), so that drift in the machine's speed cancels out.
CALIBRATION_REF_S = 0.040
# One BLAS thread: the spread between runs is what decides whether a change
# can be resolved, and single-threaded runs spread least on a shared machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("case_s.p50", "s"),
    ("case_s.p90", "s"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("failed_share", "share"),
    ("fwd_err_max", "rel"),
)

PER_LAYER = (
    ("series.invert_series.calls", "count"),
    ("series.invert_series.self_s", "s"),
    ("series.TruncatedSeries.mul.calls", "count"),
    ("series.TruncatedSeries.mul.self_s", "s"),
    ("series.quotient_coeffs.calls", "count"),
    ("series.quotient_coeffs.self_s", "s"),
    ("series.check_properties.self_s", "s"),
    ("linalg.Operator.init.calls", "count"),
    ("linalg.Operator.init.self_s", "s"),
    ("linalg.Operator.init.bytes", "B"),
    ("linalg.Operator.norm.calls", "count"),
    ("linalg.Operator.norm.self_s", "s"),
    ("linalg.Operator.is_hermitian.calls", "count"),
    ("linalg.Operator.is_hermitian.self_s", "s"),
    ("linalg.psd_check.calls", "count"),
    ("linalg.psd_check.self_s", "s"),
    ("linalg.psd_sqrt.self_s", "s"),
    ("linalg.psd_root_pieces.self_s", "s"),
    ("linalg.douglas_solve.calls", "count"),
    ("linalg.douglas_solve.self_s", "s"),
    ("linalg.complete_to_unitary.calls", "count"),
    ("linalg.complete_to_unitary.self_s", "s"),
    ("linalg.range_basis.self_s", "s"),
    ("hyper.hereditary_apply.calls", "count"),
    ("hyper.hereditary_apply.self_s", "s"),
    ("hyper.hereditary_apply.terms", "count"),
    ("hyper.hereditary_apply.flops", "flop"),
    ("hyper.defect_series.calls", "count"),
    ("hyper.defect_series.self_s", "s"),
    ("hyper.defect_limit.calls", "count"),
    ("hyper.defect_limit.grid_levels", "count"),
    ("hyper.conjugation_limit.calls", "count"),
    ("hyper.conjugation_limit.self_s", "s"),
    ("hyper.conjugation_limit.doublings", "count"),
    ("hyper.delta_power.calls", "count"),
    ("hyper.delta_power.self_s", "s"),
    ("hyper.is_W_hypercontraction.calls", "count"),
    ("hyper.is_W_hypercontraction.total_s", "s"),
    ("hyper.is_W_hypercontraction.certificates", "count"),
    ("hyper.is_pure.total_s", "s"),
    ("hyper.OperatorTuple.init.self_s", "s"),
    ("bergman.shift_matrix.calls", "count"),
    ("bergman.shift_matrix.self_s", "s"),
    ("bergman.shift_matrix.entries", "count"),
    ("bergman.multiplier_matrix.calls", "count"),
    ("bergman.multiplier_matrix.self_s", "s"),
    ("bergman.graded_indices.self_s", "s"),
    ("bergman.multishift_purity_and_positivity.self_s", "s"),
    ("dilation.pure_dilation.calls", "count"),
    ("dilation.pure_dilation.self_s", "s"),
    ("dilation.pure_dilation.total_s", "s"),
    ("dilation.pure_dilation.model_dim", "dim"),
    ("dilation.general_model.calls", "count"),
    ("dilation.general_model.self_s", "s"),
    ("dilation.general_model.total_s", "s"),
    ("dilation.general_model.model_dim", "dim"),
    ("dilation.one_var_dilation.self_s", "s"),
    ("dilation.commutant_lift.self_s", "s"),
    ("charfn.char_function.total_s", "s"),
    ("charfn.build_char_triple.self_s", "s"),
    ("charfn.contraction_C.self_s", "s"),
    ("charfn.partial_isometry_check.self_s", "s"),
    ("charfn.key_identity_check.calls", "count"),
    ("charfn.key_identity_check.self_s", "s"),
    ("charfn.char_function_eval.calls", "count"),
    ("charfn.char_function_eval.self_s", "s"),
    ("charfn.kernel_poly.calls", "count"),
    ("charfn.kernel_poly.self_s", "s"),
    ("charfn.coincidence_verify.self_s", "s"),
    ("charfn.uniqueness_unitary.self_s", "s"),
    ("pipelines.run_case.self_s", "s"),
    ("config.parse_case.self_s", "s"),
    ("config.build_tuple.self_s", "s"),
    ("config.report_json.self_s", "s"),
    ("config.report_json.bytes", "B"),
    ("trace.overhead", "x"),
)


class Worker:
    """A worker process whose stdout lines are read under a deadline.

    Leaving the `with` block reaps the process, killing it first if the
    block raised; the deadline timer kills a worker that overruns.
    """

    def __init__(self, args: list[str], env: dict, deadline: float) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
        )
        self.rusage = None
        self._timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def lines(self):
        for line in self.proc.stdout:
            yield json.loads(line)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.proc.kill()
        self.proc.stdout.close()
        self._timer.cancel()
        # wait4 rather than Popen.wait: it also returns the child's peak memory
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(args, env: dict, deadline: float) -> dict:
    """Set-up probes, then the measured worker; returns its raw records."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        with Worker(common + ["--setup-only"], env, deadline) as probe:
            for msg in probe.lines():
                setups.append(time.perf_counter() - probe.started)
        if probe.proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit code {probe.proc.returncode}")

    cases, calibrations, done, in_flight = [], [], None, None
    with Worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                env, deadline) as main:
        for msg in main.lines():
            if "ready" in msg:
                setups.append(time.perf_counter() - main.started)
            elif "calibration" in msg:
                calibrations.append(msg["calibration"])
            elif "start" in msg:
                in_flight = msg["start"]
            elif "case" in msg:
                cases.append(msg)
                in_flight = None
            elif "done" in msg:
                done = msg
    crash = None
    if done is None or main.proc.returncode != 0:
        crash = (f"worker ended with exit code {main.proc.returncode} "
                 f"during case index {in_flight}")
    for c in cases:
        # the kernel times bracketing the case; the last case of a killed
        # worker has only the one before it
        j = c["after_calibration"]
        c["calib"] = statistics.mean(calibrations[j:j + 2])
    return {"setups": setups, "cases": cases, "done": done or {}, "crash": crash,
            "peak_rss_mb": main.rusage.ru_maxrss / 1024.0}


def rescaled(case: dict) -> float:
    return case["wall"] * CALIBRATION_REF_S / case["calib"]


def end_to_end(m: dict) -> dict:
    walls = [rescaled(c) for c in m["cases"]]
    failed = [c for c in m["cases"] if c["failure"]]
    return {
        "setup_s": statistics.median(m["setups"]),
        "case_s.p50": _quantile(walls, 0.5),
        "case_s.p90": _quantile(walls, 0.9),
        "cases_per_s": len(walls) / sum(walls),
        "peak_rss_mb": m["peak_rss_mb"],
        "failed_share": len(failed) / len(walls),
        "fwd_err_max": max(c["fwd_err"] for c in m["cases"]),
    }


def per_layer(m: dict) -> dict:
    traced = [c for c in m["cases"] if c["traced"]]
    plain = [c for c in m["cases"] if not c["traced"]]
    per_case = len(traced)
    stats = m["done"].get("layers", {})
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead":
            out[name] = (sum(map(rescaled, traced)) / len(traced)) / (
                sum(map(rescaled, plain)) / len(plain))
            continue
        span, field = name.rsplit(".", 1)
        out[name] = stats.get(span, {}).get(field, 0) / per_case
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny case sizes, for the smoke test")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "wberg" / "__init__.py").is_file():
        sys.stderr.write(f"no wberg sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS + ("guard",):
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2

    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    m = measure(args, env, deadline)
    if not m["cases"]:
        sys.stderr.write(f"no case completed: {m['crash']}\n")
        return 1

    failures = {}
    for c in m["cases"]:
        if c["failure"]:
            failures.setdefault(c["case"], {"reason": c["failure"], "known": c["known"],
                                            "count": 0})["count"] += 1
    unexpected = [name for name, f in failures.items() if not f["known"]]
    correct = m["crash"] is None and not unexpected
    metrics = per_layer(m) if args.trace else end_to_end(m)
    units = dict(PER_LAYER if args.trace else END_TO_END)

    walls = [c["wall"] for c in m["cases"]]
    per_case = {}
    for c in m["cases"]:
        per_case.setdefault(c["case"], []).append(c["wall"])
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": m["done"].get("env"), "rounds": m["done"].get("rounds"),
        "samples": len(m["cases"]), "setup_samples_s": m["setups"],
        "case_median_s": {k: statistics.median(v) for k, v in per_case.items()},
        "wall_p50_s": _quantile(walls, 0.5), "wall_p90_s": _quantile(walls, 0.9),
        "wall_cases_per_s": len(walls) / sum(walls),
        "calibration_median_s": statistics.median(c["calib"] for c in m["cases"]),
        "failing_cases": failures, "unexpected_failures": unexpected, "crash": m["crash"],
        "wrapped_functions": m["done"].get("wrapped"),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(m["cases"]),
        "failed": sum(f["count"] for f in failures.values()),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
