"""Case configuration parsing and report assembly for the CLI.

A case bundles a multi-weight, an operator-tuple generator, cutoffs and
tolerances, plus the list of pipelines to run.  Configurations are JSON
objects validated by hand; generator shorthand strings are

    nilpotent:<seed>:<dim>:<n>[:<radius>]
    scalars:[t1,t2,...]
    multishift:<N1>x<N2>x...
    random-contraction:<seed>:<dim>:<n>:<radius>
    explicit:<path1>;<path2>;...

The object form ``{"kind": "explicit", "matrices": [...]}`` carries inline
matrices (used by the bundled corpus so reports stay byte-identical).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .bergman import TruncatedSpace, multishift_tuple
from .errors import ConfigError, WbergError
from .generators import (
    nilpotent_commuting_tuple,
    random_commuting_contractions,
    scalar_tuple,
)
from .hyper import OperatorTuple
from .linalg import POSITIVITY_TOL, Operator
from .series import MultiWeightSpec, _normalize_degrees, _normalize_grid

KNOWN_RUNS = (
    "series",
    "props",
    "check",
    "equivalence",
    "subtuple",
    "monotonicity",
    "dilate-pure",
    "dilate-general",
    "charfn",
)


@dataclass
class CaseConfig:
    name: str
    weights: MultiWeightSpec
    tuple_spec: Any
    degrees: tuple[int, ...]
    tol: float = POSITIVITY_TOL
    seed: int = 0
    r_grid: list | None = None
    run: tuple[str, ...] = ("check",)
    gamma: tuple[int, ...] | None = None

    def build_tuple(self, base_dir: Path | None = None) -> OperatorTuple | None:
        if self.tuple_spec is None:
            return None
        return build_tuple(self.tuple_spec, self.weights, self.degrees, base_dir)


def parse_case(data: dict, name: str = "case") -> CaseConfig:
    if not isinstance(data, dict):
        raise ConfigError("case configuration must be an object")
    unknown = set(data) - {
        "name", "weights", "tuple", "degrees", "tol", "seed", "r_grid", "run", "gamma",
    }
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    weights = data.get("weights")
    if isinstance(weights, list) and all(isinstance(w, str) for w in weights):
        weights = ",".join(weights)
    if not isinstance(weights, str):
        raise ConfigError("configuration needs a 'weights' entry: a string or a list of strings")
    try:
        weights = MultiWeightSpec.parse(weights)
    except (WbergError, ValueError) as exc:
        raise ConfigError(f"bad weights: {exc}") from exc
    degrees = data.get("degrees", 32)
    degrees = (_integer_list(degrees, "degrees") if isinstance(degrees, list)
               else _integer(degrees, "degrees"))
    try:
        degrees = _normalize_degrees(degrees, weights.n)
    except (WbergError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad degrees for weight arity {weights.n}: {exc}") from exc
    run = _converted(data, "run", tuple, ("check",))
    for step in run:
        if step not in KNOWN_RUNS:
            raise ConfigError(f"unknown pipeline step {step!r}")
    tol = _converted(data, "tol", float, POSITIVITY_TOL)
    if not (0 < tol < 1):
        raise ConfigError(f"tolerance {tol} out of range")
    r_grid = data.get("r_grid")
    if r_grid is not None:
        try:
            _normalize_grid(r_grid, weights.n)
        except (WbergError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad r_grid for weight arity {weights.n}: {exc}") from exc
    gamma = data.get("gamma")
    if gamma is not None:
        gamma = _integer_list(gamma, "gamma")
        if len(gamma) != weights.n or any(g < 1 for g in gamma):
            raise ConfigError(f"gamma {gamma} must match arity with entries >= 1")
    return CaseConfig(
        name=str(data.get("name", name)),
        weights=weights,
        tuple_spec=data.get("tuple"),
        degrees=degrees,
        tol=tol,
        seed=_integer(data.get("seed", 0), "seed"),
        r_grid=r_grid,
        run=run,
        gamma=gamma,
    )


def _converted(data: dict, key: str, convert, default):
    """``convert`` applied to the entry ``key``; a value it rejects is a :class:`ConfigError`."""
    try:
        return convert(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key!r} entry {data.get(key)!r}: {exc}") from exc


def _integer(value, key: str) -> int:
    """``value`` as an int: a bool, a string or a number with a fractional
    part is a :class:`ConfigError`, not truncated."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"bad {key!r} entry {value!r}: not an integer")
    return int(value)


def _integer_list(value, key: str) -> tuple[int, ...]:
    """A list of integers, each read by :func:`_integer`."""
    if not isinstance(value, list):
        raise ConfigError(f"bad {key!r} entry {value!r}: not a list of integers")
    return tuple(_integer(v, key) for v in value)


def build_tuple(
    spec: Any,
    weights: MultiWeightSpec,
    degrees: tuple[int, ...],
    base_dir: Path | None = None,
) -> OperatorTuple:
    """Instantiate the operator tuple described by a generator spec."""
    try:
        if isinstance(spec, dict):
            return _build_from_object(spec, base_dir)
        if not isinstance(spec, str):
            raise ConfigError(f"tuple spec must be a string or object, got {type(spec)}")
        kind, _, rest = spec.partition(":")
        if kind == "nilpotent":
            parts = rest.split(":")
            seed, dim, n = int(parts[0]), int(parts[1]), int(parts[2])
            radius = float(parts[3]) if len(parts) > 3 else 0.9
            return nilpotent_commuting_tuple(seed, dim, n, radius)
        if kind == "scalars":
            body = rest.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise ConfigError("scalars generator needs a bracketed list")
            values = [complex(v) for v in body[1:-1].split(",") if v.strip()]
            return scalar_tuple(values)
        if kind == "multishift":
            dims = tuple(int(v) for v in rest.split("x"))
            if len(dims) != weights.n:
                raise ConfigError(
                    f"multishift degrees {dims} do not match weight arity {weights.n}"
                )
            return multishift_tuple(TruncatedSpace(weights, dims, coeff_dim=1))
        if kind == "random-contraction":
            parts = rest.split(":")
            seed, dim, n = int(parts[0]), int(parts[1]), int(parts[2])
            radius = float(parts[3]) if len(parts) > 3 else 0.9
            return random_commuting_contractions(seed, dim, n, radius)
        if kind == "explicit":
            paths = [p for p in rest.split(";") if p]
            mats = []
            for p in paths:
                path = Path(p)
                if base_dir is not None and not path.is_absolute():
                    path = base_dir / path
                mats.append(Operator.from_dict(json.loads(path.read_text())))
            return OperatorTuple(tuple(mats))
        raise ConfigError(f"unknown tuple generator {kind!r}")
    except ConfigError:
        raise
    except WbergError as exc:
        raise ConfigError(f"generator produced an invalid tuple: {exc}") from exc
    except (ValueError, IndexError, OSError) as exc:
        raise ConfigError(f"bad tuple spec {spec!r}: {exc}") from exc


def _build_from_object(spec: dict, base_dir: Path | None) -> OperatorTuple:
    kind = spec.get("kind")
    if kind == "explicit":
        mats = [Operator.from_dict(m) for m in spec.get("matrices", [])]
        if not mats:
            raise ConfigError("explicit tuple object needs 'matrices'")
        try:
            return OperatorTuple(tuple(mats))
        except WbergError as exc:
            raise ConfigError(f"explicit matrices invalid: {exc}") from exc
    raise ConfigError(f"unknown tuple object kind {kind!r}")


# ---------------------------------------------------------------------------
# deterministic JSON reports
# ---------------------------------------------------------------------------

def _sanitize(value):
    if isinstance(value, dict):
        # key order is left to ``json.dumps(sort_keys=True)`` and ``cli.render_text``
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def report_json(report: dict) -> str:
    """Serialize a report deterministically (sorted keys, repr floats).

    The text is that of ``json.dumps(_sanitize(report), sort_keys=True,
    indent=2)``, byte for byte.  ``json.dumps`` with an indent runs the
    pure-Python encoder over every value; here the indented layout is
    written by :func:`_encoded`, and each flat list of finite reals (the
    bulk of a report: the entries of its matrices) goes whole to the C
    encoder, whose item separator ``",\\n" + pad`` puts each number on its
    own indented line.
    """
    return _encoded(report, "")


def _encoded(value, pad: str) -> str:
    """``value`` as ``json.dumps(_sanitize(value), sort_keys=True,
    indent=2)`` writes it at the indent ``pad``.

    Dicts and lists are laid out here, a list of ``float`` and ``int`` items
    by one C-encoder call, which refuses a nan or an infinity
    (``allow_nan=False``); such a list, and every other value, is
    sanitized item by item.  A complex value becomes ``{"im", "re"}``,
    whose parts :func:`_sanitize` leaves as they are.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = {str(k): v for k, v in value.items()}
        body = ",\n".join(f"{inner}{encode_basestring_ascii(k)}: {_encoded(items[k], inner)}"
                           for k in sorted(items))
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= {float, int}:
            try:
                flat = json.dumps(value, separators=(",\n" + inner, ": "), allow_nan=False)
                return "[\n" + inner + flat[1:-1] + "\n" + pad + "]"
            except ValueError:
                pass
        return "[\n" + ",\n".join(inner + _encoded(v, inner) for v in value) + "\n" + pad + "]"
    if isinstance(value, complex):
        return json.dumps({"re": value.real, "im": value.imag}, sort_keys=True, indent=2).replace(
            "\n", "\n" + pad)
    value = _sanitize(value)
    kind = type(value)
    # the reprs the encoder writes for an int and a finite float
    return kind.__repr__(value) if kind is float or kind is int else json.dumps(value)
