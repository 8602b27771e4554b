"""JSON file formats for momentum-sampled fields and amplitudes.

Both formats carry a header {version, n, mass, sign} and a list of samples
with an on-shell momentum; complex numbers are [re, im] pairs and floats are
serialized with full round-trip precision.  Validation failures raise
SchemaError carrying a JSON pointer to the offending element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bw import MAX_N, Amplitudes, BWComponent
from .errors import SchemaError
from .multispinor import SymMultiSpinor

VERSION = 1


def _complex_out(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _complex_in(obj, pointer: str) -> complex:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(x, (int, float)) for x in obj)):
        raise SchemaError(pointer, "expected [re, im]")
    return complex(obj[0], obj[1])


def _require(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise SchemaError(pointer, message)


def _header_out(n: int, mass: float, sign: int, normalization=None) -> dict:
    h = {"version": VERSION, "n": n, "mass": float(mass),
         "sign": "+" if sign >= 0 else "-"}
    if normalization is not None:
        h["normalization"] = normalization if isinstance(normalization, str) \
            else _complex_out(normalization)
    return h


def _header_in(doc: dict, want_normalization: bool):
    _require(isinstance(doc, dict), "", "document must be an object")
    _require("header" in doc, "", "missing header")
    h = doc["header"]
    _require(isinstance(h, dict), "/header", "header must be an object")
    _require(h.get("version") == VERSION, "/header/version",
             f"unsupported version {h.get('version')!r}")
    n = h.get("n")
    # bool is a subclass of int, so "n": true would otherwise read as 1
    _require(isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= MAX_N,
             "/header/n", f"n must be an integer in 1..{MAX_N}")
    mass = h.get("mass")
    _require(isinstance(mass, (int, float)) and mass >= 0, "/header/mass",
             "mass must be a number >= 0")
    sign = h.get("sign")
    _require(sign in ("+", "-"), "/header/sign", 'sign must be "+" or "-"')
    norm = None
    if want_normalization:
        norm = h.get("normalization", "paper-default")
        if norm != "paper-default":
            norm = _complex_in(norm, "/header/normalization")
    return n, float(mass), +1 if sign == "+" else -1, norm


def _check_momentum(p, mass: float, pointer: str) -> np.ndarray:
    _require(isinstance(p, (list, tuple)) and len(p) == 4
             and all(isinstance(x, (int, float)) for x in p),
             pointer, "p must be 4 numbers")
    arr = np.asarray(p, dtype=float)
    _require(arr[0] > 0, pointer, "p^0 must be positive")
    msq = arr[0] ** 2 - arr[1] ** 2 - arr[2] ** 2 - arr[3] ** 2
    _require(abs(msq - mass ** 2) <= 1e-8 * max(1.0, arr[0] ** 2),
             pointer, f"p off shell: p.p = {msq!r}, m^2 = {mass ** 2!r}")
    return arr


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


def _comp_sizes(n: int, mass: float) -> list[tuple[int, int]]:
    if mass > 0:
        return [(n - k, k) for k in range(n + 1)]
    return [(n, 0)]


def write_field_file(path: str, psi: BWComponent,
                     weights: np.ndarray | None = None) -> None:
    p = np.atleast_2d(psi.p)
    samples = []
    flats = [c.comp.reshape(p.shape[0], -1) if c.comp.ndim > 2
             else c.comp.reshape(1, -1) for c in psi.comps]
    for i in range(p.shape[0]):
        entry = {
            "p": [float(x) for x in p[i]],
            "comps": [[_complex_out(z) for z in flat[i]] for flat in flats],
        }
        if weights is not None:
            entry["weight"] = float(np.atleast_1d(weights)[i])
        samples.append(entry)
    doc = {"header": _header_out(psi.n, psi.mass, psi.sign), "samples": samples}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_field_file(path: str) -> FieldFile:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from exc
    n, mass, sign, _ = _header_in(doc, want_normalization=False)
    samples = doc.get("samples")
    _require(isinstance(samples, list) and samples, "/samples",
             "samples must be a non-empty array")
    sizes = _comp_sizes(n, mass)
    ps, raw = [], [[] for _ in sizes]
    weights, any_weight = [], False
    for i, entry in enumerate(samples):
        ptr = f"/samples/{i}"
        _require(isinstance(entry, dict), ptr, "sample must be an object")
        ps.append(_check_momentum(entry.get("p"), mass, ptr + "/p"))
        comps = entry.get("comps")
        _require(isinstance(comps, list) and len(comps) == len(sizes),
                 ptr + "/comps", f"need {len(sizes)} component arrays")
        for k, (r, s) in enumerate(sizes):
            want = (r + 1) * (s + 1)
            arr = comps[k]
            _require(isinstance(arr, list) and len(arr) == want,
                     f"{ptr}/comps/{k}", f"need {want} complex entries")
            raw[k].append([_complex_in(z, f"{ptr}/comps/{k}/{j}")
                           for j, z in enumerate(arr)])
        if "weight" in entry:
            any_weight = True
            weights.append(float(entry["weight"]))
        else:
            weights.append(0.0)
    _require(not any_weight or len(weights) == len(samples), "/samples",
             "weights must be present on all samples or none")
    comps = tuple(
        SymMultiSpinor(r, s, np.asarray(raw[k], dtype=complex).reshape(
            len(samples), r + 1, s + 1))
        for k, (r, s) in enumerate(sizes))
    psi = BWComponent(n=n, mass=mass, sign=sign,
                      p=np.asarray(ps), comps=comps)
    return FieldFile(component=psi,
                     weights=np.asarray(weights) if any_weight else None)


def write_amplitude_file(path: str, amps: Amplitudes, p: np.ndarray,
                         weights: np.ndarray | None = None,
                         normalization="paper-default") -> None:
    p2 = np.atleast_2d(p)
    f2 = amps.f.reshape(p2.shape[0], -1)
    samples = []
    for i in range(p2.shape[0]):
        entry = {"p": [float(x) for x in p2[i]],
                 "f": [_complex_out(z) for z in f2[i]]}
        if weights is not None:
            entry["weight"] = float(np.atleast_1d(weights)[i])
        samples.append(entry)
    doc = {"header": _header_out(amps.n, amps.mass, amps.sign, normalization),
           "samples": samples}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_amplitude_file(path: str) -> AmplitudeFile:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from exc
    n, mass, sign, norm = _header_in(doc, want_normalization=True)
    samples = doc.get("samples")
    _require(isinstance(samples, list) and samples, "/samples",
             "samples must be a non-empty array")
    count = (n + 1) if mass > 0 else 1
    ps, fs, weights, any_weight = [], [], [], False
    for i, entry in enumerate(samples):
        ptr = f"/samples/{i}"
        _require(isinstance(entry, dict), ptr, "sample must be an object")
        ps.append(_check_momentum(entry.get("p"), mass, ptr + "/p"))
        f = entry.get("f")
        _require(isinstance(f, list) and len(f) == count, ptr + "/f",
                 f"need {count} complex amplitudes")
        fs.append([_complex_in(z, f"{ptr}/f/{j}") for j, z in enumerate(f)])
        if "weight" in entry:
            any_weight = True
            weights.append(float(entry["weight"]))
        else:
            weights.append(0.0)
    amps = Amplitudes(n=n, mass=mass, sign=sign, f=np.asarray(fs, dtype=complex))
    return AmplitudeFile(amplitudes=amps, p=np.asarray(ps),
                         weights=np.asarray(weights) if any_weight else None,
                         normalization=norm)
