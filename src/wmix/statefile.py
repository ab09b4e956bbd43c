"""State file format and canonical JSON emission.

Mixed states serialize as

    {"kind": "w_mixed", "n": ..., "d": ..., "vacuum": ...,
     "coeff_re": [[...]], "coeff_im": [[...]]}

and pure states as

    {"kind": "w_pure", "n": ..., "d": ..., "amp_re": [...], "amp_im": [...]}

with matrices and vectors in label storage order (position ascending,
level ascending). Floats are emitted with 17 significant digits, enough
to round-trip doubles exactly and to keep CLI goldens byte-stable; the
same emitter renders every report the CLI prints.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import ShapeError
from .states import PureGeneralizedW, SystemShape, WMixedState, make_generalized_w


def format_float(value: float) -> str:
    """Decimal rendering with 17 significant digits; -0.0 normalizes to 0."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    if value == 0.0:
        value = 0.0
    return format(value, ".17g")


def dumps_canonical(obj) -> str:
    """Serialize dicts/lists/strings/numbers to deterministic JSON text.

    Dict key order is preserved as built; floats go through
    :func:`format_float`. Unlike ``json.dumps`` this never varies float
    spelling between platforms or runs.
    """
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, pieces: list[str]) -> None:
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _emit(value, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, value in enumerate(obj):
            if i:
                pieces.append(", ")
            _emit(value, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _matrix_lists(mat: np.ndarray) -> tuple[list[list[float]], list[list[float]]]:
    re = [[float(x) for x in row] for row in mat.real]
    im = [[float(x) for x in row] for row in mat.imag]
    return re, im


def state_to_dict(state) -> dict:
    """Plain-dict form of a state, ready for canonical emission."""
    if isinstance(state, PureGeneralizedW):
        return {
            "kind": "w_pure",
            "n": state.shape.n_parties,
            "d": state.shape.local_dim,
            "amp_re": [float(x) for x in state.amplitudes.real],
            "amp_im": [float(x) for x in state.amplitudes.imag],
        }
    if isinstance(state, WMixedState):
        re, im = _matrix_lists(state.coeff)
        return {
            "kind": "w_mixed",
            "n": state.shape.n_parties,
            "d": state.shape.local_dim,
            "vacuum": state.vacuum_weight,
            "coeff_re": re,
            "coeff_im": im,
        }
    raise ShapeError(f"cannot serialize object of type {type(state).__name__}")


def dumps_state(state) -> str:
    return dumps_canonical(state_to_dict(state)) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"bad state file: {message}")


def dict_to_state(data):
    """Rebuild a state from its dict form, validating shape and kind."""
    _require(isinstance(data, dict), "top level must be a JSON object")
    kind = data.get("kind")
    _require(kind in ("w_mixed", "w_pure"), f"unknown kind {kind!r}")
    for name in ("n", "d"):
        value = data.get(name)
        # bool is an int subclass; a JSON true must not read as 1
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"field {name!r} must be an integer")
    shape = SystemShape(data["n"], data["d"])
    k = shape.n_labels

    if kind == "w_pure":
        re = np.asarray(data.get("amp_re"), dtype=float)
        im = np.asarray(data.get("amp_im"), dtype=float)
        _require(re.shape == (k,) and im.shape == (k,),
                 f"amplitude vectors must have length {k}")
        return make_generalized_w(re + 1j * im, shape)

    vacuum = data.get("vacuum")
    _require(isinstance(vacuum, (int, float)), "field 'vacuum' must be a number")
    re = np.asarray(data.get("coeff_re"), dtype=float)
    im = np.asarray(data.get("coeff_im"), dtype=float)
    _require(re.shape == (k, k) and im.shape == (k, k),
             f"coefficient matrices must be {k}x{k}")
    coeff = re + 1j * im
    _require(float(np.abs(coeff - coeff.conj().T).max()) <= 1e-10,
             "coefficient matrix is not Hermitian")
    coeff = (coeff + coeff.conj().T) / 2.0  # exact hermiticity after rounding
    return WMixedState(shape, float(vacuum), coeff)


def loads_state(text: str):
    return dict_to_state(json.loads(text))


def load_state(path):
    with open(path, "r", encoding="utf-8") as handle:
        return loads_state(handle.read())


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_state(state))


def fingerprint(state) -> str:
    """SHA-256 of the canonical serialization; stable across file layouts."""
    return hashlib.sha256(dumps_state(state).encode("utf-8")).hexdigest()
