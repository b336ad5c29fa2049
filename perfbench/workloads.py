"""Workload definitions: the generated cases, their expected outcomes and closed forms.

Each workload is a list of cases run round-robin, one `run_case` call per case.
A case is a `wberg` case configuration (the JSON object `parse_case` accepts).
Inputs depend only on the workload name and `--seed`.

Expected outcomes come from construction, never from a run of the program:

* every generated tuple is a commuting contraction tuple whose norms satisfy
  the sufficient condition `prod_i sum_k |c_k(beta_i)| ||T_i||^(2k) < 2` for the
  weights it is paired with (so the defect series is positive at every `r`),
  or is a model operator (multishift) or a scalar tuple with `|t| < 1`;
  every pipeline run on it must therefore succeed with verdict true
  (the 1.41, 1.83, 1.30 and 1.56 of the generated families are all below 2);
* the bundled corpus is built the same way, and its `equivalence`,
  `subtuple` and `monotonicity` steps hold by theorem for any contraction
  tuple, so every corpus case must succeed too;
* scalar tuples have the closed-form vertex defect `prod_i (1 - |t_i|^2)^beta_i`;
* `bergman:beta` weights have the closed-form reciprocal coefficients
  `c_0 = 1, c_k = c_{k-1} (k - 1 - beta) / k` (`hardy` is `bergman:1`).

Round sizes are chosen so that, with cases sorted by cost, the median and the
90th percentile of a whole number of rounds fall in the middle of one case's
group of samples rather than on the edge between two cases of different cost.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

WORKLOADS = ("corpus", "dilate", "charfn", "fractional")

# Closed-form checks of reported values use the accuracy that ROADMAP item 1
# sets for scalar sweeps: the vertex defect to 1e-12.
CLOSED_FORM_ABS_TOL = 1e-12

# Forward errors below one unit roundoff read as one unit roundoff, so the
# reported maximum is never 0.
FWD_ERR_FLOOR = 2.0**-52

# Cases that hit a dense-model memory cliff.  They are not in any timed mix;
# the memory guard turns the first two into a clean MemoryError (see
# README.md).  The smoke test runs the `guard` workload built from the last.
MEMORY_CLIFFS = (
    ("dilate-pure", "bergman:2,bergman:2,bergman:2", "nilpotent:5:48:3:0.3", "needs 3.8 GiB"),
    ("dilate-pure", "bergman:2,bergman:2,bergman:2", "nilpotent:5:32:3:0.3",
     "asks for 16 TiB after 1.6 GB resident"),
    ("dilate-pure", "bergman:1.5,bergman:2.5", "scalars:[0.95,0.9]",
     "asks for 185 GiB at 63 MB resident"),
)

# The three ROADMAP item 1 reproductions, as users type them on the CLI.
ROADMAP1_CASES = (
    {"name": "roadmap1-check-b3.7-t0.999", "weights": "bergman:3.7",
     "tuple": "scalars:[0.999]", "degrees": [8], "run": ["check", "subtuple"]},
    {"name": "roadmap1-dilate-b2.5-t0.95", "weights": "bergman:2.5",
     "tuple": "scalars:[0.95]", "degrees": [8], "run": ["dilate-pure"]},
    {"name": "roadmap1-check-b2.5-t0.999", "weights": "bergman:2.5",
     "tuple": "scalars:[0.999]", "degrees": [8], "run": ["check", "subtuple"]},
)


def _phase(rng: random.Random, modulus: float) -> str:
    """A scalar of the given modulus with a seeded phase, as `complex()` parses it."""
    z = cmath.rect(modulus, 2.0 * math.pi * rng.random())
    return repr(complex(z.real, z.imag)).strip("()")


def _rotated(spec: str, seed: int) -> dict:
    """The generator's tuple conjugated by a seeded unitary, as an explicit tuple.

    What the pipelines cost on a random contraction tuple depends on its
    spectrum and varies by up to a factor of two between generator seeds,
    which would swamp the benchmark's bounds.  Unitary conjugation keeps the spectrum,
    norms and commutation, so the seed changes the input but not its cost.
    """
    from wberg.config import build_tuple
    from wberg.generators import random_unitary
    from wberg.series import MultiWeightSpec

    t = build_tuple(spec, MultiWeightSpec.parse("hardy"), (8,))
    u = random_unitary(seed, t.dim).mat
    mats = []
    for op in t:
        m = u @ op.mat @ u.conj().T
        mats.append({"rows": t.dim, "cols": t.dim, "re": m.real.ravel().tolist(),
                     "im": m.imag.ravel().tolist()})
    return {"kind": "explicit", "matrices": mats}


def _corpus(seed: int, tiny: bool) -> list[dict]:
    from wberg.corpus import corpus_cases

    cases = []
    for data in corpus_cases():
        data = dict(data)
        # what `wberg verify-all --seed <seed>` does to each case
        data["seed"] = int(data.get("seed", 0)) + seed
        cases.append(data)
    if tiny:
        cases = [c for c in cases if c["name"] in ("series-hardy-cube", "multishift-2d")]
    return cases + [dict(c) for c in ROADMAP1_CASES]


def _dilate(seed: int, tiny: bool) -> list[dict]:
    rng = random.Random(f"dilate:{seed}")
    n, m, g = (4, 2, 2) if tiny else (12, 4, 3)
    cases = [
        {"name": f"dilate-pure-multishift-{n}x{n}", "weights": "bergman:2,bergman:2",
         "tuple": f"multishift:{n}x{n}", "degrees": [n, n], "run": ["dilate-pure"]},
        {"name": f"dilate-pure-multishift-{m}x{m}x{m}",
         "weights": "bergman:2,bergman:2,bergman:2",
         "tuple": f"multishift:{m}x{m}x{m}", "degrees": [m, m, m], "run": ["dilate-pure"]},
    ]
    for k in range(2):
        cases.append(
            {"name": f"dilate-general-rc{g}-u{seed}.{k}", "weights": "bergman:2,hardy",
             "tuple": _rotated(f"random-contraction:1:{g}:2:0.3", 2 * seed + k),
             "degrees": [8, 8], "run": ["dilate-general"]})
    cases.append(
        {"name": "dilate-pure-b2.5-t0.95", "weights": "bergman:2.5",
         "tuple": f"scalars:[{_phase(rng, 0.95)}]", "degrees": [8], "run": ["dilate-pure"]})
    return cases


def _charfn(seed: int, tiny: bool) -> list[dict]:
    rng = random.Random(f"charfn:{seed}")
    d, h = (5, 4) if tiny else (16, 8)
    cases = [
        {"name": "charfn-b2.5-t0.95", "weights": "bergman:2.5",
         "tuple": f"scalars:[{_phase(rng, 0.95)}]", "degrees": [8], "seed": seed,
         "run": ["charfn"]},
        {"name": f"charfn-hardy-nil{h}-s{seed}", "weights": "hardy",
         "tuple": f"nilpotent:{seed}:{h}:1:0.5", "degrees": [8], "seed": seed,
         "run": ["charfn"]},
    ]
    for k in range(3):
        s = seed + k
        cases.append(
            {"name": f"charfn-b2-nil{d}-s{s}", "weights": "bergman:2",
             "tuple": f"nilpotent:{s}:{d}:1:0.5", "degrees": [8], "seed": s,
             "run": ["charfn"]})
    return cases


def _fractional(seed: int, tiny: bool) -> list[dict]:
    rng = random.Random(f"fractional:{seed}")
    betas = (1.5, 2.5, 3.7)
    moduli = (0.5, 0.999) if tiny else (0.5, 0.95, 0.999)
    cases = []
    for beta in betas:
        for mod in moduli:
            cases.append(
                {"name": f"sweep-b{beta}-t{mod}", "weights": f"bergman:{beta}",
                 "tuple": f"scalars:[{_phase(rng, mod)}]", "degrees": [8],
                 "run": ["check", "dilate-pure"]})
    d2, d1, copies = (6, 6, 2) if tiny else (16, 32, 15)
    for k in range(copies):
        cases.append(
            {"name": f"check-b1.5-b2.5-rc{d2}-u{seed}.{k}",
             "weights": "bergman:1.5,bergman:2.5",
             "tuple": _rotated(f"random-contraction:1:{d2}:2:0.3", seed * copies + k),
             "degrees": [8, 8], "run": ["check", "subtuple"]})
    cases.append(
        {"name": f"dilate-pure-b1.5-rc{d1}-s{seed}", "weights": "bergman:1.5",
         "tuple": f"random-contraction:{seed}:{d1}:1:0.7", "degrees": [8],
         "run": ["dilate-pure"]})
    return cases


def _guard(seed: int, tiny: bool) -> list[dict]:
    run, weights, spec, _ = MEMORY_CLIFFS[-1]
    return [{"name": "cliff-scalar-pair", "weights": weights, "tuple": spec,
             "degrees": [8, 8], "run": [run]}]


_BUILDERS = {
    "corpus": _corpus,
    "dilate": _dilate,
    "charfn": _charfn,
    "fractional": _fractional,
    "guard": _guard,
}


def cases(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The cases of one round of `workload`, generated from `seed`."""
    return _BUILDERS[workload](seed, tiny)


# ---------------------------------------------------------------------------
# expectations and closed forms
# ---------------------------------------------------------------------------

def _betas(weights_text: str) -> list[float]:
    out = []
    for item in weights_text.split(","):
        item = item.strip()
        out.append(1.0 if item == "hardy" else float(item.split(":", 1)[1]))
    return out


def has_fractional_beta(data: dict) -> bool:
    """True when a weight of the case is `bergman:beta` with non-integer beta.

    Failures on such cases belong to the open ROADMAP item 1 defect class
    (reciprocal coefficients and truncation of non-integer weights).
    """
    return any(not float(b).is_integer() for b in _betas(data["weights"]))


def scalar_vertex_defect(data: dict) -> float | None:
    """Closed-form `prod (1 - |t_i|^2)^beta_i` for scalar tuples, else None."""
    spec = data.get("tuple")
    if not isinstance(spec, str) or not spec.startswith("scalars:"):
        return None
    values = [complex(v) for v in spec.split(":", 1)[1].strip()[1:-1].split(",") if v.strip()]
    return math.prod((1.0 - abs(t) ** 2) ** b for t, b in zip(values, _betas(data["weights"])))


def reciprocal_coeffs(beta: float, n: int) -> list[float]:
    """Exact `c_k` of `(1 - z)^beta` for the binary value of `beta`, rounded once."""
    b = Fraction(beta)
    c = Fraction(1)
    out = [1.0]
    for k in range(1, n):
        c = c * (k - 1 - b) / k
        out.append(float(c))
    return out


def relative_error(values, exact) -> float:
    """Largest entrywise relative error; exact zeros are measured against max |exact|."""
    scale = max(abs(e) for e in exact)
    worst = 0.0
    for v, e in zip(values, exact):
        worst = max(worst, abs(v - e) / (abs(e) if e != 0 else scale))
    return worst
