"""JSON file formats for momentum-sampled fields and amplitudes.

Both formats carry a header {version, n, mass, sign} and a list of samples
with a momentum on the shell of the header's mass (`core.on_shell`, the rule
synthesis applies too) and, if it is 0, inside the range where the null
frame is finite (`frames.null_frame_finite`, the rule of `frame_massless`);
complex numbers are [re, im] pairs and floats are
serialized with full round-trip precision.  A field file holds its members
in standard coordinates; the field reader and writer move them into and out
of the basis adapted to the momentum that every `bw.BWComponent` stores
(`bw.from_standard`, `bw.to_standard`).  Validation failures raise
SchemaError carrying a JSON pointer to the offending element.

One writer and one reader serve both formats.  The writer converts the
columns to Python floats one block of _BLOCK samples at a time and streams
each block through the C JSON encoder.  The reader converts whole columns
with one numpy call each and validates them in vectorized form; only when a
check fails does it walk the samples in document order to name the first
offending element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import core
from .bw import MAX_N, Amplitudes, BWComponent, from_standard, to_standard, valences
from .errors import SchemaError
from .frames import null_frame_finite
from .multispinor import SymMultiSpinor

VERSION = 1

# samples serialized per json.dumps call: the C encoder, with each block's
# text small (about 24 KB for a field at n=4); blocks of 128 samples left the
# peak RSS of the CLI round trip about 1 MiB higher
_BLOCK = 16

# the JSON numbers; bool is a subclass of int and is not one of them
_NUMBER_TYPES = {int, float}


def _is_number(x) -> bool:
    return type(x) in _NUMBER_TYPES


def _finite(values) -> bool:
    try:
        return bool(np.all(np.isfinite(np.array(values, dtype=float))))
    except OverflowError:           # an integer beyond the float range
        return False


def _require(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise SchemaError(pointer, message)


def _complex_in(obj, pointer: str) -> complex:
    _require(isinstance(obj, list) and len(obj) == 2 and all(map(_is_number, obj)),
             pointer, "expected [re, im]")
    _require(_finite(obj), pointer, "[re, im] must be finite")
    return complex(obj[0], obj[1])


def _header_out(n: int, mass: float, sign: int, normalization=None) -> dict:
    h = {"version": VERSION, "n": n, "mass": float(mass),
         "sign": "+" if sign >= 0 else "-"}
    if normalization is not None:
        h["normalization"] = normalization if isinstance(normalization, str) \
            else [float(np.real(normalization)), float(np.imag(normalization))]
    return h


def _header_in(doc: dict, want_normalization: bool):
    _require(isinstance(doc, dict), "", "document must be an object")
    _require("header" in doc, "", "missing header")
    h = doc["header"]
    _require(isinstance(h, dict), "/header", "header must be an object")
    version = h.get("version")
    # True == 1 and 1.0 == 1 in Python; the version is the integer 1
    _require(type(version) is int and version == VERSION, "/header/version",
             f"unsupported version {version!r}")
    n = h.get("n")
    _require(type(n) is int and 1 <= n <= MAX_N,
             "/header/n", f"n must be an integer in 1..{MAX_N}")
    mass = h.get("mass")
    _require(_is_number(mass) and _finite(mass) and mass >= 0, "/header/mass",
             "mass must be a finite number >= 0")
    sign = h.get("sign")
    _require(sign in ("+", "-"), "/header/sign", 'sign must be "+" or "-"')
    norm = None
    if want_normalization:
        norm = h.get("normalization", "paper-default")
        if norm != "paper-default":
            # synthesis at m = 0 takes no normalization
            _require(mass > 0, "/header/normalization",
                     'a massless amplitude file takes only "paper-default"')
            norm = _complex_in(norm, "/header/normalization")
    return n, float(mass), +1 if sign == "+" else -1, norm


def _check_momentum(p, mass: float, pointer: str) -> None:
    _require(isinstance(p, list) and len(p) == 4 and all(map(_is_number, p)),
             pointer, "p must be 4 numbers")
    _require(_finite(p), pointer, "p must be finite")
    _require(core.on_shell(np.asarray(p, dtype=float), mass), pointer,
             f"p off shell: need p^0 > 0, |p.p - m^2| <= 1e-10 (p^0)^2 and, "
             f"for m > 0, p.p > 1e-10 (p^0)^2; m = {mass!r}")
    _require(mass > 0 or null_frame_finite(p), pointer,
             "massless p outside the null frame's finite range, p^0 ~4e-309 to 9e307")


def _check_pairs(obj, count: int, pointer: str, noun: str) -> None:
    _require(isinstance(obj, list) and len(obj) == count, pointer,
             f"need {count} complex {noun}")
    for j, z in enumerate(obj):
        _complex_in(z, f"{pointer}/{j}")


def _check_sample(entry, i: int, mass: float, columns: dict, weighted: bool) -> None:
    """Raise the SchemaError for the first bad element of sample i, if any.

    `columns` maps a key to the count of [re, im] pairs it holds, or to a
    tuple of counts for an array of such lists (the graded blocks of a field).
    """
    ptr = f"/samples/{i}"
    _require(isinstance(entry, dict), ptr, "sample must be an object")
    _check_momentum(entry.get("p"), mass, ptr + "/p")
    for key, sizes in columns.items():
        value = entry.get(key)
        if isinstance(sizes, tuple):
            _require(isinstance(value, list) and len(value) == len(sizes),
                     f"{ptr}/{key}", f"need {len(sizes)} component arrays")
            for k, want in enumerate(sizes):
                _check_pairs(value[k], want, f"{ptr}/{key}/{k}", "entries")
        else:
            _check_pairs(value, sizes, f"{ptr}/{key}", "amplitudes")
    _require(("weight" in entry) == weighted, ptr,
             "weights must be present on all samples or none")
    if weighted:
        w = entry["weight"]
        _require(_is_number(w) and _finite(w), ptr + "/weight",
                 "weight must be a finite number")


def _floats(values: list, depth: int, shape: tuple) -> np.ndarray | None:
    """One float array of the given shape from nested lists of JSON numbers.

    None if any leaf `depth` lists down is not an int or float (booleans,
    strings, null and containers included), if the nesting is ragged or of
    another shape, or if any value is not finite.
    """
    leaves = iter(values)
    try:
        for _ in range(depth):
            leaves = chain.from_iterable(leaves)
        if not set(map(type, leaves)) <= _NUMBER_TYPES:
            return None
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        return None
    return arr


def _pairs_in(values: list, count: int) -> np.ndarray | None:
    """(S, count) complex array from per-sample lists of [re, im] pairs."""
    arr = _floats(values, 2, (len(values), count, 2))
    return None if arr is None else arr.view(complex)[..., 0]


def _columns_in(samples: list, mass: float, columns: dict):
    """The vectorized read: (p, {key: arrays}, weights), or None if any check fails."""
    if set(map(type, samples)) != {dict}:
        return None
    count = len(samples)
    try:
        p = _floats([e["p"] for e in samples], 1, (count, 4))
        if p is None or not np.all(core.on_shell(p, mass)):
            return None
        if mass == 0 and not np.all(null_frame_finite(p)):
            return None
        out = {}
        for key, sizes in columns.items():
            col = [e[key] for e in samples]
            if isinstance(sizes, tuple):
                if set(map(type, col)) != {list} or set(map(len, col)) != {len(sizes)}:
                    return None
                out[key] = [_pairs_in([c[k] for c in col], want)
                            for k, want in enumerate(sizes)]
                if any(a is None for a in out[key]):
                    return None
            else:
                out[key] = _pairs_in(col, sizes)
                if out[key] is None:
                    return None
    except KeyError:
        return None
    weighted = ["weight" in e for e in samples]
    weights = None
    if all(weighted):
        weights = _floats([e["weight"] for e in samples], 0, (count,))
        if weights is None:
            return None
    elif any(weighted):
        return None
    return p, out, weights


def _read_samples(path, header_kind: str, columns):
    """Read and validate a v1 file of either kind.

    `header_kind` is "field" or "amplitude" (which carries a normalization);
    `columns(n, mass)` gives the sample columns as described at
    `_check_sample`.  Returns ((n, mass, sign, normalization), p, {key:
    complex arrays}, weights or None).
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from exc
    header = _header_in(doc, want_normalization=header_kind == "amplitude")
    n, mass = header[0], header[1]
    samples = doc.get("samples")
    _require(isinstance(samples, list) and samples, "/samples",
             "samples must be a non-empty array")
    spec = columns(n, mass)
    read = _columns_in(samples, mass, spec)
    if read is None:
        weighted = isinstance(samples[0], dict) and "weight" in samples[0]
        for i, entry in enumerate(samples):
            _check_sample(entry, i, mass, spec, weighted)
        raise SchemaError("/samples", "malformed samples")   # not reached
    return (header, *read)


def _write_samples(path, header: dict, p: np.ndarray, columns: dict,
                   weights: np.ndarray | None) -> None:
    """Write a v1 file: header, then per sample p, the columns and the weight.

    `columns` maps a key to an (S, m) complex array, written per sample as m
    [re, im] pairs, or to a tuple of such arrays, written as a list of them.
    The bytes equal those of `json.dump` of the whole document.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    count = p.shape[0]
    if weights is not None:
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if weights.shape != (count,):
            raise ValueError(f"need {count} weights, got {weights.shape[0]}")

    def flat(z: np.ndarray) -> np.ndarray:
        # one (S, m) array per column: a reshape of a batch-last view copies
        return np.asarray(z, dtype=complex).reshape(count, -1)

    def pairs(z: np.ndarray, a: int, b: int) -> list:
        return np.ascontiguousarray(z[a:b]).view(float).reshape(b - a, -1, 2).tolist()

    columns = {key: tuple(map(flat, value)) if isinstance(value, tuple) else flat(value)
               for key, value in columns.items()}

    with open(path, "w") as fh:
        fh.write('{"header": ' + json.dumps(header) + ', "samples": [')
        for a in range(0, count, _BLOCK):
            b = min(a + _BLOCK, count)
            rows = {"p": p[a:b].tolist()}
            for key, value in columns.items():
                rows[key] = list(zip(*(pairs(z, a, b) for z in value))) \
                    if isinstance(value, tuple) else pairs(value, a, b)
            if weights is not None:
                rows["weight"] = weights[a:b].tolist()
            block = [dict(zip(rows, entry)) for entry in zip(*rows.values())]
            fh.write((", " if a else "") + json.dumps(block)[1:-1])
        fh.write("]}\n")


@dataclass(frozen=True)
class FieldFile:
    """In-memory form of a field file: one BWComponent batch plus weights."""

    component: BWComponent
    weights: np.ndarray | None


@dataclass(frozen=True)
class AmplitudeFile:
    """In-memory form of an amplitude file."""

    amplitudes: Amplitudes
    p: np.ndarray
    weights: np.ndarray | None
    normalization: object    # "paper-default" or a complex number


def _field_columns(n: int, mass: float) -> dict:
    return {"comps": tuple((r + 1) * (s + 1) for r, s in valences(n, mass))}


def _amplitude_columns(n: int, mass: float) -> dict:
    return {"f": len(valences(n, mass))}


def write_field_file(path: str, psi: BWComponent,
                     weights: np.ndarray | None = None) -> None:
    """Write the members in standard coordinates (`bw.to_standard`), as
    version 1 stores them."""
    _write_samples(path, _header_out(psi.n, psi.mass, psi.sign), psi.p,
                   {"comps": tuple(c.comp for c in to_standard(psi))}, weights)


def read_field_file(path: str) -> FieldFile:
    (n, mass, sign, _), p, cols, weights = _read_samples(path, "field",
                                                         _field_columns)
    comps = tuple(SymMultiSpinor(r, s, c.reshape(len(p), r + 1, s + 1))
                  for (r, s), c in zip(valences(n, mass), cols["comps"]))
    # the file holds standard coordinates; a BWComponent, the adapted basis
    return FieldFile(component=from_standard(n, mass, sign, p, comps), weights=weights)


def write_amplitude_file(path: str, amps: Amplitudes, p: np.ndarray,
                         weights: np.ndarray | None = None,
                         normalization="paper-default") -> None:
    _write_samples(path, _header_out(amps.n, amps.mass, amps.sign, normalization),
                   p, {"f": amps.f}, weights)


def read_amplitude_file(path: str) -> AmplitudeFile:
    (n, mass, sign, norm), p, cols, weights = _read_samples(path, "amplitude",
                                                            _amplitude_columns)
    amps = Amplitudes(n=n, mass=mass, sign=sign, f=cols["f"])
    return AmplitudeFile(amplitudes=amps, p=p, weights=weights, normalization=norm)
