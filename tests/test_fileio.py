import io
import json

import numpy as np
import pytest

from bwspinor import core, fileio
from bwspinor.bw import (MAX_N, Amplitudes, from_standard, synth_massive, synth_massless,
                         to_standard)
from bwspinor.cli import main
from bwspinor.errors import SchemaError
from bwspinor.fileio import (read_amplitude_file, read_field_file,
                             write_amplitude_file, write_field_file)
from bwspinor.frames import frame_massive, frame_massless


def make_field(count=5, n=2, seed=0):
    rng = np.random.default_rng(seed)
    p = core.random_future_momentum(1.0, rng, size=count)
    fr = frame_massive(p, core.random_spinor(rng, size=count))
    f = rng.normal(size=(count, n + 1)) + 1j * rng.normal(size=(count, n + 1))
    amps = Amplitudes(n=n, mass=1.0, sign=+1, f=f)
    return synth_massive(fr, amps)


def assert_members_close(got, want):
    # the file holds standard coordinates: the members come back through one
    # move out of the basis adapted to p and one back, within 4 n eps of the
    # sample's largest entry (22 eps read at n = 10)
    scale = np.maximum.reduce([core.max_abs(c.comp, 2) for c in want.comps])
    err = np.maximum.reduce([core.max_abs(a.comp - b.comp, 2)
                             for a, b in zip(got.comps, want.comps)])
    assert len(got.comps) == len(want.comps)
    assert np.all(err <= 4 * want.n * np.finfo(float).eps * scale)


class TestRoundTrip:
    def test_field_file_round_trip(self, tmp_path):
        for n in (2, MAX_N):
            psi = make_field(n=n)
            path = tmp_path / "field.json"
            weights = np.linspace(0.1, 0.5, 5)
            write_field_file(path, psi, weights)
            data = read_field_file(path)
            assert data.component.n == psi.n
            assert data.component.mass == psi.mass
            assert data.component.sign == psi.sign
            assert np.array_equal(data.component.p, psi.p)
            assert_members_close(data.component, psi)
            assert np.array_equal(data.weights, weights)

    def test_field_file_massless(self, tmp_path):
        p = core.random_future_momentum(0.0, 1, size=4)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, np.array([1.0, 2j, -1.0, 0.5]), 3)
        path = tmp_path / "mlfield.json"
        write_field_file(path, psi)
        data = read_field_file(path)
        assert_members_close(data.component, psi)
        assert data.weights is None

    def test_amplitude_file_lossless(self, tmp_path):
        rng = np.random.default_rng(2)
        p = core.random_future_momentum(1.0, rng, size=3)
        f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        amps = Amplitudes(n=2, mass=1.0, sign=-1, f=f)
        path = tmp_path / "amp.json"
        write_amplitude_file(path, amps, p, normalization=0.5 + 0.25j)
        data = read_amplitude_file(path)
        assert np.array_equal(data.amplitudes.f, f)
        assert np.array_equal(data.p, p)
        assert data.amplitudes.sign == -1
        assert data.normalization == 0.5 + 0.25j


class TestSchemaErrors:
    def _amp_doc(self):
        return {
            "header": {"version": 1, "n": 1, "mass": 1.0, "sign": "+"},
            "samples": [{"p": [1.0, 0.0, 0.0, 0.0], "f": [[1.0, 0.0], [0.0, 0.0]]}],
        }

    def _write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return path

    def test_bad_version(self, tmp_path):
        doc = self._amp_doc()
        doc["header"]["version"] = 7
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(self._write(tmp_path, doc))
        assert err.value.pointer == "/header/version"

    # True == 1 and 1.0 == 1 in Python: the reader takes the integer 1 alone
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_equal_to_1_but_not_the_integer(self, tmp_path, version):
        doc = self._amp_doc()
        doc["header"]["version"] = version
        path = self._write(tmp_path, doc)
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/header/version"
        out = tmp_path / "field.json"
        assert main(["synth", "--in", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("n", [True, 0, 11, 2.0])
    def test_bad_spin(self, tmp_path, n):
        doc = self._amp_doc()
        doc["header"]["n"] = n
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(self._write(tmp_path, doc))
        assert err.value.pointer == "/header/n"

    def test_off_shell_momentum(self, tmp_path):
        doc = self._amp_doc()
        doc["samples"][0]["p"] = [1.0, 0.0, 0.0, 0.5]
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(self._write(tmp_path, doc))
        assert err.value.pointer == "/samples/0/p"

    def test_wrong_amplitude_count(self, tmp_path):
        doc = self._amp_doc()
        doc["samples"][0]["f"] = [[1.0, 0.0]]
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(self._write(tmp_path, doc))
        assert err.value.pointer == "/samples/0/f"

    def test_bad_complex_entry(self, tmp_path):
        doc = self._amp_doc()
        doc["samples"][0]["f"][1] = [1.0]
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(self._write(tmp_path, doc))
        assert err.value.pointer == "/samples/0/f/1"

    def test_wrong_component_length(self, tmp_path):
        psi = make_field(count=2, n=1, seed=3)
        path = tmp_path / "field.json"
        write_field_file(path, psi)
        doc = json.loads(path.read_text())
        doc["samples"][1]["comps"][0] = doc["samples"][1]["comps"][0][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        assert err.value.pointer == "/samples/1/comps/0"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_field_file(path)


def reference_bytes(header, p, columns, weights):
    """The v1 bytes as written sample by sample through json.dump."""
    def pair(z):
        return [float(np.real(z)), float(np.imag(z))]

    count = p.shape[0]
    samples = []
    for i in range(count):
        entry = {"p": [float(x) for x in p[i]]}
        for key, value in columns.items():
            if isinstance(value, tuple):
                entry[key] = [[pair(z) for z in c.reshape(count, -1)[i]] for c in value]
            else:
                entry[key] = [pair(z) for z in value.reshape(count, -1)[i]]
        if weights is not None:
            entry["weight"] = float(weights[i])
        samples.append(entry)
    buf = io.StringIO()
    json.dump({"header": header, "samples": samples}, buf)
    return (buf.getvalue() + "\n").encode()


def make_amplitudes(count=5, n=2, seed=0, mass=1.0):
    rng = np.random.default_rng(seed)
    p = core.random_future_momentum(mass, rng, size=count)
    width = n + 1 if mass > 0 else 1
    f = rng.normal(size=(count, width)) + 1j * rng.normal(size=(count, width))
    return Amplitudes(n=n, mass=mass, sign=-1, f=f), p


class TestWriterBytes:
    """The block writer emits exactly what one json.dump of the document did."""

    @pytest.mark.parametrize("n", [1, 4, MAX_N])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_field_file(self, tmp_path, n, weighted):
        # 130 samples span several writer blocks, the last one partial
        psi = make_field(count=130, n=n, seed=n)
        weights = np.linspace(0.1, 0.7, 130) if weighted else None
        path = tmp_path / "field.json"
        write_field_file(path, psi, weights)
        header = {"version": 1, "n": n, "mass": 1.0, "sign": "+"}
        expect = reference_bytes(header, psi.p, {"comps": tuple(c.comp for c in to_standard(psi))},
                                 weights)
        assert path.read_bytes() == expect

    def test_massless_field_file(self, tmp_path):
        p = core.random_future_momentum(0.0, 4, size=130)
        psi = synth_massless(frame_massless(p).pi, np.linspace(1, 2, 130) + 0.5j, 3)
        path = tmp_path / "field.json"
        write_field_file(path, psi)
        header = {"version": 1, "n": 3, "mass": 0.0, "sign": "+"}
        assert path.read_bytes() == reference_bytes(
            header, psi.p, {"comps": tuple(c.comp for c in to_standard(psi))}, None)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("normalization", ["paper-default", 0.5 - 0.25j])
    def test_amplitude_file(self, tmp_path, weighted, normalization):
        amps, p = make_amplitudes(count=257, n=4, seed=5)
        weights = np.linspace(1.0, 2.0, 257) if weighted else None
        path = tmp_path / "amp.json"
        write_amplitude_file(path, amps, p, weights, normalization=normalization)
        header = {"version": 1, "n": 4, "mass": 1.0, "sign": "-",
                  "normalization": normalization if isinstance(normalization, str)
                  else [0.5, -0.25]}
        assert path.read_bytes() == reference_bytes(header, p, {"f": amps.f}, weights)

    def test_single_unbatched_sample(self, tmp_path):
        amps, p = make_amplitudes(count=1, n=2, seed=6)
        path = tmp_path / "amp.json"
        write_amplitude_file(path, Amplitudes(2, 1.0, -1, amps.f[0]), p[0])
        header = {"version": 1, "n": 2, "mass": 1.0, "sign": "-",
                  "normalization": "paper-default"}
        assert path.read_bytes() == reference_bytes(header, p, {"f": amps.f}, None)
        assert np.array_equal(read_amplitude_file(path).amplitudes.f, amps.f)

    def test_reference_file_loads_to_same_arrays(self, tmp_path):
        # the reader moves the standard members of the file into the basis
        # adapted to p, as `bw.from_standard` does
        psi = make_field(count=40, n=3, seed=8)
        members = to_standard(psi)
        weights = np.linspace(0.2, 0.9, 40)
        path = tmp_path / "field.json"
        header = {"version": 1, "n": 3, "mass": 1.0, "sign": "+"}
        path.write_bytes(reference_bytes(
            header, psi.p, {"comps": tuple(c.comp for c in members)}, weights))
        data = read_field_file(path)
        assert np.array_equal(data.component.p, psi.p)
        moved = from_standard(3, 1.0, +1, psi.p, members)
        for got, want in zip(data.component.comps, moved.comps):
            assert np.array_equal(got.comp, want.comp)
        assert np.array_equal(data.weights, weights)


class TestBitExact:
    EDGE = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                     1e308, -1e308, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 7.0,
                     1.7976931348623157e308, 123456789.01234567])

    def bits(self, x):
        return np.ascontiguousarray(x).view(np.uint64)

    def test_amplitude_values(self, tmp_path):
        count = 6
        re, im = self.EDGE.reshape(count, 2), self.EDGE[::-1].reshape(count, 2)
        f = np.empty((count, 2), dtype=complex)
        f.real, f.imag = re, im
        p = np.array([[1.0, -0.0, 0.0, -0.0]] * count)
        weights = self.EDGE[:count].copy()
        path = tmp_path / "amp.json"
        write_amplitude_file(path, Amplitudes(1, 1.0, +1, f), p, weights)
        data = read_amplitude_file(path)
        assert np.array_equal(self.bits(data.amplitudes.f.view(float)), self.bits(f.view(float)))
        assert np.array_equal(self.bits(data.p), self.bits(p))
        assert np.array_equal(self.bits(data.weights), self.bits(weights))

    def test_field_values(self, tmp_path):
        # the members a field file holds come back bit for bit from the
        # sample reader; read_field_file then moves them into the basis
        # adapted to p, which rounds
        psi = make_field(count=2, n=1, seed=9)
        comps = []
        for c in psi.comps:
            vals = np.resize(self.EDGE, 2 * c.comp.size)
            z = vals[0::2] + 0j
            z.imag = vals[1::2]
            comps.append(z.reshape(c.comp.shape))
        path = tmp_path / "field.json"
        header = {"version": 1, "n": 1, "mass": 1.0, "sign": "+"}
        path.write_bytes(reference_bytes(header, psi.p, {"comps": tuple(comps)}, None))
        _, _, cols, _ = fileio._read_samples(path, "field", fileio._field_columns)
        for got, want in zip(cols["comps"], comps):
            assert np.array_equal(self.bits(got.view(float)),
                                  self.bits(want.reshape(len(want), -1).view(float)))


class TestRejectedSamples:
    """Malformed samples name the first bad element in document order."""

    def _amp_path(self, tmp_path, count=3):
        amps, p = make_amplitudes(count=count, n=1, seed=11)
        path = tmp_path / "amp.json"
        write_amplitude_file(path, amps, p, np.ones(count))
        return path

    def _edit(self, path, edit):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("weight", ["abc", [1], "1.5", None, True, float("nan"),
                                        float("inf"),
                                        pytest.param(10 ** 400, id="huge-int")])
    def test_bad_weight(self, tmp_path, weight):
        path = self._edit(self._amp_path(tmp_path),
                          lambda d: d["samples"][1].update(weight=weight))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/samples/1/weight"
        assert err.value.message == "weight must be a finite number"

    def test_missing_weight_among_weighted(self, tmp_path):
        path = self._edit(self._amp_path(tmp_path),
                          lambda d: d["samples"][2].pop("weight"))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/samples/2"
        assert "present on all samples or none" in err.value.message

    def test_weight_among_unweighted(self, tmp_path):
        psi = make_field(count=3, n=1, seed=12)
        path = tmp_path / "field.json"
        write_field_file(path, psi)
        self._edit(path, lambda d: d["samples"][1].update(weight=1.0))
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        assert err.value.pointer == "/samples/1"

    @pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("-inf")],
                                       [True, 0.0], [0.0, False], ["1", 0.0], [None, 0.0]])
    def test_bad_amplitude_entry(self, tmp_path, entry):
        path = self._edit(self._amp_path(tmp_path),
                          lambda d: d["samples"][2]["f"].__setitem__(1, entry))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/samples/2/f/1"

    @pytest.mark.parametrize("entry", [[float("nan"), 1.0], [True, 0.0]])
    def test_bad_field_entry(self, tmp_path, entry):
        psi = make_field(count=3, n=2, seed=13)
        path = tmp_path / "field.json"
        write_field_file(path, psi, np.ones(3))
        self._edit(path, lambda d: d["samples"][1]["comps"][1].__setitem__(3, entry))
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        assert err.value.pointer == "/samples/1/comps/1/3"

    @pytest.mark.parametrize("component", [True, float("nan"), float("inf"), "1.0"])
    def test_bad_momentum_component(self, tmp_path, component):
        path = self._edit(self._amp_path(tmp_path),
                          lambda d: d["samples"][1]["p"].__setitem__(2, component))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/samples/1/p"

    def test_overflowing_momentum_off_shell(self, tmp_path):
        path = self._edit(self._amp_path(tmp_path),
                          lambda d: d["samples"][1].update(p=[1e200, 0.0, 0.0, 0.0]))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/samples/1/p"
        assert "off shell" in err.value.message

    @pytest.mark.parametrize("mass", [True, float("nan"), float("inf"), "1", -1.0])
    def test_bad_mass(self, tmp_path, mass):
        path = self._edit(self._amp_path(tmp_path),
                          lambda d: d["header"].update(mass=mass))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/header/mass"

    @pytest.mark.parametrize("normalization", [[True, 0.0], [float("nan"), 0.0]])
    def test_bad_normalization(self, tmp_path, normalization):
        path = self._edit(self._amp_path(tmp_path),
                          lambda d: d["header"].update(normalization=normalization))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/header/normalization"

    @pytest.mark.parametrize("normalization", [[2.0, 0.0], [True, 0.0]])
    def test_massless_custom_normalization(self, tmp_path, normalization):
        # synth_massless takes no normalization, so the file's would be ignored
        amps, p = make_amplitudes(count=3, n=2, seed=15, mass=0.0)
        path = tmp_path / "amp.json"
        write_amplitude_file(path, amps, p)
        self._edit(path, lambda d: d["header"].update(normalization=normalization))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/header/normalization"

    def test_massless_default_normalization(self, tmp_path):
        amps, p = make_amplitudes(count=3, n=2, seed=15, mass=0.0)
        path = tmp_path / "amp.json"
        write_amplitude_file(path, amps, p, normalization="paper-default")
        assert read_amplitude_file(path).normalization == "paper-default"

    def test_first_bad_sample_in_document_order(self, tmp_path):
        psi = make_field(count=3, n=2, seed=14)
        path = tmp_path / "field.json"
        write_field_file(path, psi, np.ones(3))

        def edit(doc):
            doc["samples"][0]["comps"][1][2] = [float("nan"), 0.0]
            doc["samples"][1]["p"] = [1.0, 0.0, 0.0, 0.5]
        self._edit(path, edit)
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        assert err.value.pointer == "/samples/0/comps/1/2"

    def test_first_bad_element_within_sample(self, tmp_path):
        path = self._edit(self._amp_path(tmp_path), lambda d: (
            d["samples"][1].update(weight="x"),
            d["samples"][1]["f"].__setitem__(0, [1.0]),
            d["samples"][2].update(p=[1.0, 1.0, 0.0, 0.0])))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer == "/samples/1/f/0"

    @pytest.mark.parametrize("sample", [[], "x", None, {"p": [1.0, 0.0, 0.0, 0.0]}])
    def test_malformed_sample(self, tmp_path, sample):
        path = self._edit(self._amp_path(tmp_path),
                          lambda d: d["samples"].__setitem__(1, sample))
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(path)
        assert err.value.pointer.startswith("/samples/1")
