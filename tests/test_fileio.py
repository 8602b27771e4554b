import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bwspinor import core, fileio
from bwspinor.bw import (MAX_N, Amplitudes, BWComponent, from_standard, synth,
                         synth_massless, to_standard, valences)
from bwspinor.cli import main
from bwspinor.errors import NotFinite, SchemaError
from bwspinor.fileio import (read_amplitude_file, read_field_file,
                             write_amplitude_file, write_field_file)
from bwspinor.frames import frame_for, frame_massless
from bwspinor.multispinor import SymMultiSpinor

DATA = Path(__file__).resolve().parent / "data"


def make_field(count=5, n=2, seed=0, mass=1.0, sign=+1, scale=1.0):
    """A synthesized field at random momenta of about |p| = scale, random
    amplitudes and, massive, a random reference spinor."""
    rng = np.random.default_rng(seed)
    p = core.random_future_momentum(mass, rng, size=count, scale=scale)
    nu = core.random_spinor(rng, size=count) if mass > 0 else None
    width = len(valences(n, mass))
    f = rng.normal(size=(count, width)) + 1j * rng.normal(size=(count, width))
    return synth(frame_for(p, mass, nu), Amplitudes(n=n, mass=mass, sign=sign, f=f))


def write_v1(path, psi, weights=None):
    """The version-1 file of psi: every member in standard coordinates."""
    header = {"version": 1, "n": psi.n, "mass": float(psi.mass),
              "sign": "+" if psi.sign > 0 else "-"}
    path.write_bytes(reference_bytes(header, psi.p, {"comps": tuple(c.comp for c in to_standard(psi))},
                                     weights))
    return path


def assert_members_equal(got, want):
    assert (got.n, got.mass, got.sign) == (want.n, want.mass, want.sign)
    assert np.array_equal(got.p, want.p)
    assert len(got.comps) == len(want.comps)
    for a, b in zip(got.comps, want.comps):
        assert (a.r, a.s) == (b.r, b.s)
        assert np.array_equal(a.comp, b.comp)


class TestRoundTrip:
    def test_field_file_round_trip(self, tmp_path):
        for n in (2, MAX_N):
            psi = make_field(n=n)
            path = tmp_path / "field.json"
            weights = np.linspace(0.1, 0.5, 5)
            write_field_file(path, psi, weights)
            data = read_field_file(path)
            assert_members_equal(data.component, psi)
            assert np.array_equal(data.weights, weights)

    def test_field_file_massless(self, tmp_path):
        p = core.random_future_momentum(0.0, 1, size=4)
        fr = frame_massless(p)
        psi = synth_massless(fr.pi, np.array([1.0, 2j, -1.0, 0.5]), 3)
        path = tmp_path / "mlfield.json"
        write_field_file(path, psi)
        data = read_field_file(path)
        assert_members_equal(data.component, psi)
        assert data.weights is None

    # version 2 holds member 0 as the field stores it, and the reader gathers
    # the rest as synthesis does: every member, p and weight come back bit
    # for bit
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("mass", [0.0, 1.0], ids=["massless", "massive"])
    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_version2_bit_exact(self, tmp_path, n, mass, sign, weighted):
        psi = make_field(count=7, n=n, seed=200 + n, mass=mass, sign=sign, scale=5.0)
        weights = np.geomspace(1e-3, 7.0, 7) / 3.0 if weighted else None
        path = tmp_path / "field.json"
        write_field_file(path, psi, weights)
        header = json.loads(path.read_text())["header"]
        assert header == {"version": 2, "basis": "axis_rotation", "n": n, "mass": mass,
                          "sign": "+" if sign > 0 else "-"}
        data = read_field_file(path)
        assert_members_equal(data.component, psi)
        assert np.array_equal(data.component.basis[0], psi.basis[0])
        if weighted:
            assert np.array_equal(data.weights, weights)
        else:
            assert data.weights is None

    def test_gathered_overflow_names_the_sample(self, tmp_path):
        # member 0 is finite, but the gather puts alpha^10 psi_0[0] on member
        # 10, and alpha = p^0 + |p| is about 2 at sample 1: it overflows
        psi = make_field(count=3, n=10, seed=3)
        path = tmp_path / "field.json"
        write_field_file(path, psi)
        doc = json.loads(path.read_text())
        doc["samples"][1]["psi0"][0] = [1e306, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(NotFinite, match=r"sample index \[1\]"):
            read_field_file(path)

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


class TestVersion1:
    """A version-1 field file, every member in standard coordinates, is read
    as legacy input: moved into the basis adapted to p, and checked against
    the field equations there."""

    @pytest.mark.parametrize("name", ["n4_massive", "n2_massless"])
    def test_fixture_reads_as_before(self, name):
        # tests/data holds a packet's amplitudes and the version-1 field that
        # synth wrote of them before version 2 (`packet --points 2`, default nu)
        path = DATA / f"field_v1_{name}.json"
        data = read_field_file(path)
        doc = json.loads(path.read_text())
        head = doc["header"]
        n, mass, sign = head["n"], head["mass"], +1 if head["sign"] == "+" else -1
        p = np.array([e["p"] for e in doc["samples"]])
        comps = tuple(SymMultiSpinor(r, s, np.array([e["comps"][k] for e in doc["samples"]])
                                     .view(complex)[..., 0].reshape(len(p), r + 1, s + 1))
                      for k, (r, s) in enumerate(valences(n, mass)))
        # the reader of version 1 as it was: the members moved into the basis
        assert_members_equal(data.component, from_standard(n, mass, sign, p, comps))
        assert np.array_equal(data.weights, [e["weight"] for e in doc["samples"]])
        # and the field the amplitudes synthesize in memory, within 1e-13 of
        # each sample's largest entry
        amps = read_amplitude_file(DATA / f"amp_{name}.json")
        assert np.array_equal(amps.p, p)
        want = synth(frame_for(p, mass), amps.amplitudes)
        scale = np.maximum.reduce([core.max_abs(c.comp, 2) for c in want.comps])
        for got, ref in zip(data.component.comps, want.comps, strict=True):
            assert np.all(core.max_abs(got.comp - ref.comp, 2) <= 1e-13 * scale)

    # a version-1 file of a synthesized field passes the check at every n,
    # both masses and both signs, at |p| about 1 and about 30
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    @pytest.mark.parametrize("mass", [0.0, 1.0], ids=["massless", "massive"])
    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_solutions_pass(self, tmp_path, n, mass, scale):
        for sign in (+1, -1):
            psi = make_field(count=40, n=n, seed=300 + n, mass=mass, sign=sign, scale=scale)
            data = read_field_file(write_v1(tmp_path / "field.json", psi))
            assert data.component.n == n

    # a field of entries about 1e-9 is checked as one of entries about 1:
    # the residuals floor their scale at 1, so the reader scales the members
    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    @pytest.mark.parametrize("mass", [0.0, 1.0], ids=["massless", "massive"])
    def test_member_off_the_equations_names_the_sample(self, tmp_path, mass, scale):
        # member 0's first entry, in standard coordinates, scaled by 1.1 plus
        # 0.1 at sample 2 alone
        psi = make_field(count=4, n=4, seed=17, mass=mass)
        psi = replace(psi, comps=tuple(c.scaled(scale) for c in psi.comps))
        path = write_v1(tmp_path / "field.json", psi, np.ones(4))
        doc = json.loads(path.read_text())
        entry = doc["samples"][2]["comps"][0][0]
        entry[:] = [1.1 * entry[0] + 0.1 * scale, 1.1 * entry[1]]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        assert err.value.pointer == "/samples/2/comps"
        assert "field equations" in err.value.message
        for command in (["extract", "--out", str(tmp_path / "amp.json")], ["norm"]):
            assert main([command[0], "--in", str(path)] + command[1:]) == 2

    def test_massless_residual_reads_the_entries_with_an_index_0(self):
        # in the basis adapted to p, p^{AA'} = diag(lam0, lam1) with lam1 = 0
        # for a null p: entries 0..n-1 of the member carry an index 0
        psi = make_field(count=3, n=3, seed=18, mass=0.0)
        assert np.all(fileio._massless_residual(psi) <= 1e-15)
        comp = psi.comps[0].comp.copy()
        comp[1, 2, 0] = 1e-3 * np.abs(comp[1, 3, 0])
        spoiled = fileio._massless_residual(
            from_standard(3, 0.0, +1, psi.p, to_standard(
                BWComponent(3, 0.0, +1, psi.p, (SymMultiSpinor(3, 0, comp),)))))
        lam0 = psi.basis[1][1, 0]
        want = lam0 * abs(comp[1, 2, 0]) / max(1.0, abs(comp[1, 3, 0]) * psi.p[1, 0])
        assert spoiled[1] == pytest.approx(want, rel=1e-6)
        assert np.all(spoiled[[0, 2]] <= 1e-15)


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
        path = write_v1(tmp_path / "field.json", psi)
        doc = json.loads(path.read_text())
        doc["samples"][1]["comps"][0] = doc["samples"][1]["comps"][0][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        assert err.value.pointer == "/samples/1/comps/0"

    def _field_path(self, tmp_path, mass=1.0):
        path = tmp_path / "field.json"
        write_field_file(path, make_field(count=3, n=3, seed=4, mass=mass), np.ones(3))
        return path

    def _edited(self, path, edit):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        return err.value.pointer

    @pytest.mark.parametrize("mass, count", [(1.0, 3), (1.0, 5), (0.0, 0), (0.0, 4)])
    def test_wrong_psi0_count(self, tmp_path, mass, count):
        # 4 entries massive at n = 3, 1 massless
        path = self._field_path(tmp_path, mass)
        assert self._edited(path, lambda d: d["samples"][1].update(
            psi0=[[0.5, 0.0]] * count)) == "/samples/1/psi0"

    @pytest.mark.parametrize("entry", [[1.0], [float("nan"), 0.0], [0.0, True], "x"])
    def test_bad_psi0_entry(self, tmp_path, entry):
        path = self._field_path(tmp_path)
        assert self._edited(path, lambda d: d["samples"][2]["psi0"].__setitem__(
            2, entry)) == "/samples/2/psi0/2"

    @pytest.mark.parametrize("basis", [None, "standard", "", 2, ["axis_rotation"]])
    def test_missing_or_unknown_basis(self, tmp_path, basis):
        def edit(doc):
            doc["header"].pop("basis")
            if basis is not None:
                doc["header"]["basis"] = basis
        assert self._edited(self._field_path(tmp_path), edit) == "/header/basis"

    @pytest.mark.parametrize("version", [3, True, 2.0, 0, "2", None])
    def test_unknown_field_version(self, tmp_path, version):
        path = self._field_path(tmp_path)
        assert self._edited(path, lambda d: d["header"].update(version=version)) \
            == "/header/version"

    def test_field_version_in_an_amplitude_file(self, tmp_path):
        doc = self._amp_doc()
        doc["header"].update(version=2, basis="axis_rotation")
        with pytest.raises(SchemaError) as err:
            read_amplitude_file(self._write(tmp_path, doc))
        assert err.value.pointer == "/header/version"

    def test_version1_header_takes_no_basis_check(self, tmp_path):
        # the basis belongs to version 2; a version-1 file never had one
        path = write_v1(tmp_path / "field.json", make_field(count=2, n=2, seed=5))
        doc = json.loads(path.read_text())
        doc["header"]["basis"] = "anything"
        path.write_text(json.dumps(doc))
        assert read_field_file(path).component.n == 2

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
        header = {"version": 2, "basis": "axis_rotation", "n": n, "mass": 1.0, "sign": "+"}
        expect = reference_bytes(header, psi.p, {"psi0": psi.comps[0].comp[..., 0]}, weights)
        assert path.read_bytes() == expect

    def test_massless_field_file(self, tmp_path):
        p = core.random_future_momentum(0.0, 4, size=130)
        psi = synth_massless(frame_massless(p).pi, np.linspace(1, 2, 130) + 0.5j, 3)
        path = tmp_path / "field.json"
        write_field_file(path, psi)
        header = {"version": 2, "basis": "axis_rotation", "n": 3, "mass": 0.0, "sign": "+"}
        assert path.read_bytes() == reference_bytes(
            header, psi.p, {"psi0": psi.comps[0].comp[..., 3:, 0]}, None)

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
        # the reader moves the standard members of a version-1 file into the
        # basis adapted to p, as `bw.from_standard` does
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

    def _field_values(self, tmp_path, version):
        # the entries a field file holds, member 0 of version 2 or every
        # member of version 1, come back bit for bit from the sample reader;
        # read_field_file then gathers or moves the members, which rounds
        psi = make_field(count=3, n=2, seed=9)
        comps = []
        for c in psi.comps[:1] if version == 2 else psi.comps:
            width = 3 if version == 2 else c.comp[0].size
            vals = np.resize(self.EDGE, 2 * 3 * width)
            z = vals[0::2] + 0j
            z.imag = vals[1::2]
            comps.append(z.reshape(3, width))
        path = tmp_path / "field.json"
        header = ({"version": 2, "basis": "axis_rotation"} if version == 2 else {"version": 1}) \
            | {"n": 2, "mass": 1.0, "sign": "+"}
        columns = {"psi0": comps[0]} if version == 2 else {"comps": tuple(comps)}
        path.write_bytes(reference_bytes(header, psi.p, columns, None))
        _, _, cols, _ = fileio._read_samples(path, "field", fileio._FIELD_COLUMNS)
        got = (cols["psi0"],) if version == 2 else cols["comps"]
        for a, b in zip(got, comps, strict=True):
            assert np.array_equal(self.bits(a.view(float)), self.bits(b.view(float)))

    def test_field_values(self, tmp_path):
        self._field_values(tmp_path, 2)

    def test_legacy_field_values(self, tmp_path):
        self._field_values(tmp_path, 1)


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
        self._edit(path, lambda d: d["samples"][1]["psi0"].__setitem__(1, entry))
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        assert err.value.pointer == "/samples/1/psi0/1"

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
            doc["samples"][0]["psi0"][2] = [float("nan"), 0.0]
            doc["samples"][1]["p"] = [1.0, 0.0, 0.0, 0.5]
        self._edit(path, edit)
        with pytest.raises(SchemaError) as err:
            read_field_file(path)
        assert err.value.pointer == "/samples/0/psi0/2"

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
