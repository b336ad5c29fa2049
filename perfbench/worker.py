"""One workload in one process: set up, run whole rounds of cases, check them.

Started by `run.py`, never by hand.  Protocol on stdout, one JSON object a
line: `{"ready": ...}` once set-up is done, `{"start": i}` before and
`{"case": ...}` after each timed case, `{"calibration": seconds}` between
cases at least every `Calibration.INTERVAL_S` of case time and once at the
end, and `{"done": ...}` last.  A case's `after_calibration` field is the
index of the last kernel time measured before it.

The process limits its own address space first, so a case that hits a
dense-model memory cliff raises `MemoryError` and counts as a failed case
instead of taking the machine's memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ADDRESS_SPACE_LIMIT = 6 * 2**30


class Calibration:
    """A fixed kernel timed between cases to track the machine's current speed.

    On a shared machine the speed of the same code drifts by up to a factor
    of two within a minute, and interpreter-bound code drifts more than
    large LAPACK calls.  The kernel therefore times both kinds of work `wberg`
    does: small complex matrix products with Python-level bookkeeping, and
    SVDs of a mid-sized matrix.  `run.py` rescales each case by the kernel
    times measured just before and just after it.
    """

    INTERVAL_S = 0.5  # case time between two kernel runs

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self.mid = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))

    def __call__(self) -> float:
        np, a = self.np, self.small
        start = time.perf_counter()
        x = a
        acc = 0.0
        for i in range(500):
            x = (a @ x) / 30.0
            acc += float(np.linalg.norm(x[:4, :4]))
            acc += len(json.dumps({"a": i, "b": [i, acc]}))
        for _ in range(2):
            np.linalg.svd(self.mid)
        return time.perf_counter() - start


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "address_space_limit_gib": ADDRESS_SPACE_LIMIT / 2**30,
    }


class Checker:
    """Judges each case outside the timed region against its expected outcome."""

    def __init__(self, workloads) -> None:
        self.w = workloads
        self.digests: dict[int, str] = {}
        self.coeff_err: dict[str, float] = {}

    def _coefficient_error(self, weights_text: str) -> float:
        from wberg.hyper import DEGREE_CAP
        from wberg.series import MultiWeightSpec

        worst = 0.0
        for spec in MultiWeightSpec.parse(weights_text):
            if spec.text not in self.coeff_err:
                beta = 1.0 if spec.kind == "hardy" else spec.beta
                exact = self.w.reciprocal_coeffs(beta, DEGREE_CAP)
                self.coeff_err[spec.text] = self.w.relative_error(
                    spec.inverse_coeffs(DEGREE_CAP).tolist(), exact)
            worst = max(worst, self.coeff_err[spec.text])
        return worst

    def judge(self, index: int, data: dict, ok, report, body: str, error) -> dict:
        """Outcome of one case: failure reason (or None) and forward error."""
        failure = None
        fwd = self._coefficient_error(data["weights"])
        if error is not None:
            failure = f"raised {error}"
        elif not ok:
            failure = "verdict false, expected true by construction"
        else:
            exact = self.w.scalar_vertex_defect(data)
            check = report["steps"].get("check", {})
            if exact is not None and "defect_vertex_min_eig" in check:
                got = check["defect_vertex_min_eig"]
                # defects are on the scale of D(0) = I, so an exact 0 compares absolutely
                fwd = max(fwd, abs(got - exact) / (exact if exact > 0 else 1.0))
                if abs(got - exact) > self.w.CLOSED_FORM_ABS_TOL:
                    failure = (f"vertex defect {got:.6e} differs from closed form "
                               f"{exact:.6e} by more than {self.w.CLOSED_FORM_ABS_TOL:g}")
        digest = hashlib.sha256(body.encode()).hexdigest()
        first = self.digests.setdefault(index, digest)
        nondeterministic = first != digest
        if nondeterministic:
            failure = "report bytes differ from the first round"
        known = (failure is not None and not nondeterministic
                 and self.w.has_fractional_beta(data))
        return {"failure": failure, "known": known, "fwd_err": max(fwd, self.w.FWD_ERR_FLOOR)}


def setup(workload: str, seed: int, tiny: bool):
    """Everything a fresh process does before its first timed case."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    root = Path(__file__).resolve().parent.parent
    import wberg.cli  # what every command imports
    from wberg.dilation import HORIZON_CAP
    from wberg.hyper import DEGREE_CAP
    from wberg.series import MultiWeightSpec

    if Path(wberg.__file__).resolve().parent != root / "src" / "wberg":
        raise SystemExit(f"imported wberg from {wberg.__file__}, not from this checkout")
    import workloads

    cases = workloads.cases(workload, seed, tiny)
    # the weight-series caches every command fills on first use
    for text in sorted({c["weights"] for c in cases} | {"hardy"}):
        for spec in MultiWeightSpec.parse(text):
            spec.inverse_coeffs(DEGREE_CAP)
            spec.inverse_weight_values(HORIZON_CAP)
    return workloads, cases


def run_case_once(data: dict):
    """The timed operation: what `wberg` does for one case of a command."""
    from wberg.config import parse_case, report_json
    from wberg.pipelines import run_case

    case = parse_case(dict(data), name=data["name"])
    ok, report = run_case(case)
    return ok, report, report_json(report)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads, cases = setup(args.workload, args.seed, args.tiny)
    _emit({"ready": True, "cases_per_round": len(cases)})
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    checker = Checker(workloads)
    calibrate = Calibration()
    calibrations = 0
    since_calibration = math.inf
    # traced runs alternate untraced and traced rounds, so the overhead ratio
    # compares rounds under the same machine conditions
    min_rounds = 4 if tracer else 2
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    last_round = 0.0
    # whole rounds only, and none that would end past the deadline
    while (rounds < min_rounds or time.perf_counter() + last_round <= deadline
           or (tracer and rounds % 2)):
        round_start = time.perf_counter()
        traced = bool(tracer) and rounds % 2 == 1
        if tracer:
            tracer.install() if traced else tracer.uninstall()
        for index, data in enumerate(cases):
            if since_calibration >= calibrate.INTERVAL_S:
                _emit({"calibration": calibrate()})
                calibrations += 1
                since_calibration = 0.0
            _emit({"start": index})
            ok = report = None
            body = error = None
            start = time.perf_counter()
            try:
                ok, report, body = run_case_once(data)
            except Exception as exc:  # a failed case is a measured outcome
                error = f"{type(exc).__name__}: {str(exc)[:160]}"
            wall = time.perf_counter() - start
            since_calibration += wall
            outcome = checker.judge(index, data, ok, report, body or error, error)
            _emit({"case": data["name"], "index": index, "round": rounds, "wall": wall,
                   "after_calibration": calibrations - 1, "traced": traced, **outcome})
        rounds += 1
        last_round = time.perf_counter() - round_start
    if tracer:
        tracer.uninstall()
    _emit({"calibration": calibrate()})
    _emit({"done": True, "rounds": rounds, "env": environment(),
           "wrapped": tracer.wrapped_names if tracer else 0,
           "layers": tracer.stats if tracer else {}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
