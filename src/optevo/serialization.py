"""JSON interchange for states, operators, and trajectories.

Every array goes through one codec. Complex numbers travel as [re, im]
pairs: the encoder views a complex array as float pairs, checks
finiteness once and calls ``tolist``; the decoder checks the leaf types of
the nested lists in one pass (non-bool ints and floats only), converts
them with one ``np.array`` call, checks shape and finiteness, and views
the float pairs as complex. Floats are written with Python's shortest
round-trip representation, so encode followed by decode reproduces every
finite double bit for bit. Non-finite values are rejected in both
directions; any document off the schema raises SerializationError.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain

import numpy as np

from .errors import SerializationError
from .evolution import Trajectory
from .numerics import as_matrix
from .quantum_states import PureState, Units

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "state_to_json",
    "state_from_json",
    "trajectory_to_json",
    "trajectory_from_json",
    "load_document",
    "save_document",
    "file_digest",
]

MATRIX_KINDS = ("hermitian", "skew-hermitian", "density", "unitary")


def _encode(a) -> list | float:
    """Nested lists of a real or complex array, each complex entry as an
    [re, im] pair; rejects non-finite entries."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a, dtype=complex).view(float).reshape(a.shape + (2,))
    else:
        a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise SerializationError("non-finite value in an array")
    return a.tolist()


def _decode(raw, shape: tuple, what: str, dtype=complex) -> np.ndarray:
    """Array of the given shape from nested lists of numbers, each complex
    entry read from an [re, im] pair. Leaf types are checked before numpy
    converts the lists, which would otherwise accept bools and numeric
    strings."""
    if dtype is complex:
        shape = shape + (2,)
    try:
        leaves = raw
        for _ in shape[1:]:
            leaves = chain.from_iterable(leaves)
        kinds = set(map(type, leaves))
    except TypeError as exc:
        raise SerializationError(f"{what} is not a nested list: {exc}") from exc
    if any(k is bool or not issubclass(k, (int, float)) for k in kinds):
        raise SerializationError(f"{what} entries must be numbers")
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SerializationError(f"{what}: {exc}") from exc
    if arr.size == 0 and 0 in shape:  # [] carries no inner dimensions
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise SerializationError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise SerializationError(f"{what} holds a non-finite value")
    return arr.view(complex)[..., 0] if dtype is complex else arr


def _header(doc, what: str, keys: tuple) -> int:
    """Check a document's required keys and return its dimension ``n``."""
    if not isinstance(doc, dict):
        raise SerializationError(f"{what} document must be an object")
    for key in keys:
        if key not in doc:
            raise SerializationError(f"{what} document lacks {key!r}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SerializationError(f"bad dimension {n!r}")
    return n


def _units(doc) -> Units | None:
    """The document's unit system, or None when it carries none."""
    if "units" not in doc:
        return None
    block = doc["units"]
    if not isinstance(block, dict) or "hbar" not in block:
        raise SerializationError("units block must carry hbar")
    hbar = _decode([block["hbar"]], (1,), "hbar", float)
    try:
        return Units(float(hbar[0]))
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def matrix_to_json(m, kind: str) -> dict:
    """Encode a square complex matrix with its structural tag."""
    if kind not in MATRIX_KINDS:
        raise SerializationError(f"unknown matrix kind {kind!r}")
    a = as_matrix(m)
    return {"n": int(a.shape[0]), "kind": kind, "rows": _encode(a)}


def matrix_from_json(doc) -> tuple[np.ndarray, str]:
    """Decode a matrix document, returning the matrix and its kind tag."""
    n = _header(doc, "matrix", ("n", "kind", "rows"))
    kind = doc["kind"]
    if kind not in MATRIX_KINDS:
        raise SerializationError(f"unknown matrix kind {kind!r}")
    return _decode(doc["rows"], (n, n), "rows"), kind


def state_to_json(phi: PureState, units: Units | None = None) -> dict:
    """Encode a pure state, optionally with its unit system."""
    doc = {"n": int(phi.n), "amplitudes": _encode(phi.amplitudes)}
    if units is not None:
        doc["units"] = {"hbar": _encode(units.hbar)}
    return doc


def state_from_json(doc) -> tuple[PureState, Units | None]:
    """Decode a pure state document; returns the state and optional units."""
    n = _header(doc, "state", ("n", "amplitudes"))
    vec = _decode(doc["amplitudes"], (n,), "amplitudes")
    units = _units(doc)
    try:
        state = PureState(vec)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc
    return state, units


def trajectory_to_json(traj: Trajectory) -> dict:
    """Encode a sampled trajectory; an empty one has no dimension to record
    and raises SerializationError."""
    if traj.kind == "empty":
        raise SerializationError("an empty trajectory has no dimension to record")
    return {
        "times": _encode(traj.times),
        "states": _encode(traj.samples),
        "kind": traj.kind,
        "n": int(traj.samples.shape[1]),
        "units": {"hbar": _encode(traj.units.hbar)},
    }


def trajectory_from_json(doc) -> Trajectory:
    """Decode a trajectory document (generator is not part of the format).
    The samples are checked once, as a stack, by the trajectory."""
    n = _header(doc, "trajectory", ("times", "states", "kind", "n"))
    times, states = doc["times"], doc["states"]
    lists = isinstance(times, list) and isinstance(states, list)
    if not lists or len(times) != len(states):
        raise SerializationError("times and states must be lists of one length")
    kind = doc["kind"]
    if kind not in ("pure", "density"):
        raise SerializationError(f"unknown trajectory kind {kind!r}")
    dims = (n,) if kind == "pure" else (n, n)
    samples = _decode(states, (len(states),) + dims, "states")
    samples.flags.writeable = False
    ts = _decode(times, (len(times),), "times", float)
    units = _units(doc) or Units()
    try:
        return Trajectory(ts, samples, None, units)
    except ValueError as exc:
        raise SerializationError(str(exc)) from exc


def load_document(path: str):
    """Parse a JSON file, mapping read and syntax errors to SerializationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def save_document(doc, path: str) -> None:
    """Write a JSON document compactly; rejects non-finite floats.

    The document is encoded in full before the file is opened, so a
    failed encode creates no file and leaves an existing one unchanged.
    """
    text = json.dumps(doc, allow_nan=False, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def file_digest(path: str) -> str:
    """Hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
