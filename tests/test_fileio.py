import json

import numpy as np
import pytest

from bwspinor import core
from bwspinor.bw import Amplitudes, synth_massive, synth_massless
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


class TestRoundTrip:
    def test_field_file_lossless(self, tmp_path):
        psi = make_field()
        path = tmp_path / "field.json"
        weights = np.linspace(0.1, 0.5, 5)
        write_field_file(path, psi, weights)
        data = read_field_file(path)
        assert data.component.n == psi.n
        assert data.component.mass == psi.mass
        assert data.component.sign == psi.sign
        assert np.array_equal(data.component.p, psi.p)
        for k in range(psi.n + 1):
            assert np.array_equal(data.component.comps[k].comp, psi.comps[k].comp)
        assert np.array_equal(data.weights, weights)

    def test_field_file_massless(self, tmp_path):
        p = core.random_future_momentum(0.0, 1, size=4)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, np.array([1.0, 2j, -1.0, 0.5]), 3)
        path = tmp_path / "mlfield.json"
        write_field_file(path, psi)
        data = read_field_file(path)
        assert len(data.component.comps) == 1
        assert np.array_equal(data.component.comps[0].comp, psi.comps[0].comp)
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
