import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bwspinor.cli import main
from bwspinor.errors import InvalidResolution
from bwspinor.fileio import read_amplitude_file
from bwspinor.quadrature import build_grid


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_core_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "core", "--trials", "500"],
                               capsys)
        assert code == 0
        assert "trace_reversal_massive" in out
        assert "FAIL" not in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "core", "--trials", "50",
                                "--tol", "1e-30"], capsys)
        assert code == 1
        assert "FAIL" in out

    def test_nan_residual_fails(self, capsys, monkeypatch):
        from bwspinor import verify
        monkeypatch.setitem(verify.SUITES, "core",
                            lambda trials, seed: {"fine": 0.0, "broken": float("nan")})
        code, out, _ = run_cli(["verify", "--suite", "core", "--trials", "5"], capsys)
        assert code == 1
        assert "broken" in out and "FAIL" in out
        assert "worst residual: nan" in out

    def test_zero_trials_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "--trials", "0"], capsys)
        assert code == 2
        assert "--trials" in err

    @pytest.mark.parametrize("extra, flag", [
        (["--seed", "-1"], "--seed"),
        (["--tol", "inf"], "--tol"),
        (["--tol", "nan"], "--tol"),
        (["--tol", "0"], "--tol"),
        (["--tol", "-1"], "--tol"),
    ])
    def test_bad_seed_or_tolerance_usage_error(self, capsys, extra, flag):
        code, out, err = run_cli(["verify", "--suite", "core", "--trials", "5",
                                  *extra], capsys)
        assert code == 2
        assert flag in err and len(err.strip().splitlines()) == 1
        assert out == ""

    def test_bogus_suite_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 2


class TestFrame:
    def test_rest_frame_report(self, capsys):
        code, out, _ = run_cli(["frame", "--p", "0,0,0", "--mass", "1",
                                "--nu", "1,0"], capsys)
        assert code == 0
        assert "0.7071068" in out

    def test_massless_flag(self, capsys):
        code, out, _ = run_cli(["frame", "--p", "0,0,1", "--mass", "0",
                                "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert abs(data["pi"][0][0] - 2 ** 0.25) < 1e-9
        assert abs(data["pi"][0][1]) < 1e-12

    def test_frame_at_1e200(self, capsys):
        # p^0 = sqrt(m^2 + |p|^2) would overflow if formed as written
        code, out, err = run_cli(["frame", "--p", "0,0,1e200", "--mass", "0", "--json"],
                                 capsys)
        assert code == 0, err
        data = json.loads(out)
        np.testing.assert_allclose(data["pi_vec"], data["p"], rtol=1e-14, atol=0.0)
        assert data["p"] == [1e200, 0.0, 0.0, 1e200]

    def test_massive_frame_at_1e155(self, capsys):
        code, out, err = run_cli(["frame", "--p", "0,0,0", "--mass", "1e155", "--nu", "1,0",
                                  "--json"], capsys)
        assert code == 0, err
        data = json.loads(out)
        np.testing.assert_allclose(data["omega_dot_p"], 1e155 / np.sqrt(2.0), rtol=1e-14)
        np.testing.assert_allclose(data["lambda_plus"], 1e155 / np.sqrt(2.0), rtol=1e-14)

    def test_missing_nu_massive(self, capsys):
        code, _, err = run_cli(["frame", "--p", "0,0,0", "--mass", "1"], capsys)
        assert code == 2
        assert "--nu" in err

    @pytest.mark.parametrize("nu", ["nan,1", "1,inf", "0,0"])
    def test_bad_reference_usage_error(self, nu):
        with pytest.raises(SystemExit) as err:
            main(["frame", "--p", "0,0,1", "--mass", "1", "--nu", nu])
        assert err.value.code == 2

    @pytest.mark.parametrize("mass", ["-1", "nan", "inf"])
    def test_bad_mass_usage_error(self, capsys, mass):
        code, _, err = run_cli(["frame", "--p", "0,0,1", "--mass", mass], capsys)
        assert code == 2
        assert "--mass" in err


class TestPipelines:
    def test_synth_extract_roundtrip(self, tmp_path, capsys):
        amp = tmp_path / "amp.json"
        field = tmp_path / "field.json"
        amp2 = tmp_path / "amp2.json"
        code, _, _ = run_cli(["packet", "--n", "3", "--mass", "1.0",
                              "--out", str(amp), "--points", "5",
                              "--half-width", "2.0",
                              "--coeffs", "1,0.5j,-0.25,0.125"], capsys)
        assert code == 0
        assert run_cli(["synth", "--in", str(amp), "--out", str(field)],
                       capsys)[0] == 0
        assert run_cli(["extract", "--in", str(field), "--out", str(amp2)],
                       capsys)[0] == 0
        before = read_amplitude_file(amp)
        after = read_amplitude_file(amp2)
        assert np.max(np.abs(before.amplitudes.f - after.amplitudes.f)) < 1e-12

    def test_packet_at_mass_1e155_synthesizes(self, tmp_path, capsys):
        amp, field = tmp_path / "amp.json", tmp_path / "field.json"
        code, _, err = run_cli(["packet", "--n", "2", "--mass", "1e155", "--out", str(amp),
                                "--points", "2"], capsys)
        assert code == 0, err
        data = read_amplitude_file(amp)
        assert data.amplitudes.mass == 1e155
        assert np.all(np.isfinite(data.weights)) and np.all(data.weights > 0)
        assert run_cli(["synth", "--in", str(amp), "--out", str(field)], capsys)[0] == 0

    def test_norm_direction_agreement(self, tmp_path, capsys):
        amp = tmp_path / "amp.json"
        field = tmp_path / "field.json"
        run_cli(["packet", "--n", "1", "--mass", "1.0", "--out", str(amp),
                 "--points", "6", "--half-width", "2.5"], capsys)
        run_cli(["synth", "--in", str(amp), "--out", str(field)], capsys)
        code, out, _ = run_cli(["norm", "--in", str(field), "--t", "standard",
                                "--t", "null-omega", "--t", "random:3",
                                "--standard-bw"], capsys)
        assert code == 0
        spread = float(out.split("max relative spread = ")[1].split()[0])
        assert spread < 1e-10
        ratio = float(out.split("ratio generalized/standard = ")[1].split()[0])
        assert abs(ratio - 2 ** -0.5) < 1e-9

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"header": {"version": 9}}))
        code, _, err = run_cli(["synth", "--in", str(bad), "--out",
                                str(tmp_path / "x.json")], capsys)
        assert code == 2
        assert "/header/version" in err

    def test_boolean_spin_schema_error(self, tmp_path, capsys):
        amp = tmp_path / "amp.json"
        run_cli(["packet", "--n", "1", "--mass", "1.0", "--out", str(amp),
                 "--points", "2", "--half-width", "1.0"], capsys)
        doc = json.loads(amp.read_text())
        doc["header"]["n"] = True
        amp.write_text(json.dumps(doc))
        code, _, err = run_cli(["synth", "--in", str(amp), "--out",
                                str(tmp_path / "field.json")], capsys)
        assert code == 2
        assert "/header/n" in err

    def test_massless_custom_normalization_schema_error(self, tmp_path, capsys):
        amp = tmp_path / "amp.json"
        run_cli(["packet", "--n", "2", "--mass", "0", "--out", str(amp),
                 "--points", "2", "--half-width", "1.0"], capsys)
        doc = json.loads(amp.read_text())
        doc["header"]["normalization"] = [2.0, 0.0]
        amp.write_text(json.dumps(doc))
        field = tmp_path / "field.json"
        code, _, err = run_cli(["synth", "--in", str(amp), "--out", str(field)],
                               capsys)
        assert code == 2
        assert "/header/normalization" in err and len(err.strip().splitlines()) == 1
        assert not field.exists()

    def test_unknown_direction_spec_usage_error(self, tmp_path, capsys):
        amp = tmp_path / "amp.json"
        field = tmp_path / "field.json"
        run_cli(["packet", "--n", "1", "--mass", "1.0", "--out", str(amp),
                 "--points", "4", "--half-width", "2.0"], capsys)
        run_cli(["synth", "--in", str(amp), "--out", str(field)], capsys)
        code, _, err = run_cli(["norm", "--in", str(field), "--t", "bogus"],
                               capsys)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("spec", ["random:abc", "random:-3", "fixed:1,x,0,0",
                                      "fixed:inf,0,0,0", "fixed:1,0,0"])
    def test_malformed_direction_spec_usage_error(self, tmp_path, capsys, spec):
        amp = tmp_path / "amp.json"
        field = tmp_path / "field.json"
        run_cli(["packet", "--n", "1", "--mass", "1.0", "--out", str(amp),
                 "--points", "2", "--half-width", "1.0"], capsys)
        run_cli(["synth", "--in", str(amp), "--out", str(field)], capsys)
        code, _, err = run_cli(["norm", "--in", str(field), "--t", spec], capsys)
        assert code == 2
        assert spec in err

    @pytest.mark.parametrize("extra", [["--n", "0"], ["--n", "11"], ["--sigma", "0"],
                                       ["--coeffs", "1,abc,2"], ["--coeffs", "1,inf,2"],
                                       ["--points", "0"], ["--points", "1"],
                                       ["--mass", "-1"], ["--mass", "nan"],
                                       ["--half-width", "-2"], ["--half-width", "inf"],
                                       ["--half-width", "1e200"]])
    def test_packet_usage_error(self, tmp_path, capsys, extra):
        out = tmp_path / "amp.json"
        args = ["packet", "--n", "2", "--mass", "1.0", "--out", str(out), "--points", "2"]
        code, _, err = run_cli(args + extra, capsys)
        assert code == 2
        assert "error" in err
        assert not out.exists()

    @pytest.mark.parametrize("count, code", [(1, 0), (2, 2), (3, 0), (4, 2)])
    def test_fixed_list_length(self, tmp_path, capsys, count, code):
        amp = tmp_path / "amp.json"
        field = tmp_path / "field.json"
        run_cli(["packet", "--n", "3", "--mass", "1.0", "--out", str(amp),
                 "--points", "2", "--half-width", "1.0"], capsys)
        run_cli(["synth", "--in", str(amp), "--out", str(field)], capsys)
        spec = "fixed:" + ";".join(["1,0,0,0"] * count)
        got, out, err = run_cli(["norm", "--in", str(field), "--t", spec], capsys)
        assert got == code
        if code:
            assert spec in err and "n=3" in err
            assert "norm[" not in out
        else:
            assert f"norm[{spec}]" in out

    def test_direction_spec_checked_before_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(["norm", "--in", str(missing), "--t", "standard",
                                "--t", "bogus"], capsys)
        assert code == 2
        assert "bogus" in err
        assert "missing.json" not in err

    def test_nonfinite_center_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["packet", "--n", "1", "--mass", "1.0", "--center", "nan,0,0",
                  "--out", str(tmp_path / "amp.json")])
        assert err.value.code == 2

    def test_missing_input_file_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(["norm", "--in", str(missing)], capsys)
        assert code == 2
        assert "missing.json" in err

    def test_malformed_weight_schema_error(self, tmp_path, capsys):
        amp = tmp_path / "amp.json"
        field = tmp_path / "field.json"
        run_cli(["packet", "--n", "1", "--mass", "1.0", "--out", str(amp),
                 "--points", "2", "--half-width", "1.0"], capsys)
        run_cli(["synth", "--in", str(amp), "--out", str(field)], capsys)
        doc = json.loads(field.read_text())
        doc["samples"][3]["weight"] = "abc"
        field.write_text(json.dumps(doc))
        code, _, err = run_cli(["extract", "--in", str(field), "--out",
                                str(tmp_path / "amp2.json")], capsys)
        assert code == 2
        assert "/samples/3/weight" in err

    def test_orthogonal_direction_names_sample(self, tmp_path, capsys):
        import bwspinor as bs
        field = tmp_path / "field.json"
        p = np.array([[np.sqrt(2.0), 0.0, 1.0, 0.0]])
        fr = bs.frame_massive(p, np.array([1.0, 0.0]))
        psi = bs.synth_massive(fr, bs.Amplitudes(1, 1.0, +1,
                                                 np.ones((1, 2)) + 0j))
        from bwspinor.fileio import write_field_file
        write_field_file(field, psi, np.array([1.0]))
        code, _, err = run_cli(["norm", "--in", str(field),
                                "--t", "fixed:0,1,0,0"], capsys)
        assert code == 1
        assert "sample" in err

    def test_norm_requires_weights(self, tmp_path, capsys):
        amp = tmp_path / "amp.json"
        field = tmp_path / "field.json"
        run_cli(["packet", "--n", "1", "--mass", "1.0", "--out", str(amp),
                 "--points", "4", "--half-width", "2.0"], capsys)
        run_cli(["synth", "--in", str(amp), "--out", str(field)], capsys)
        doc = json.loads(field.read_text())
        for sample in doc["samples"]:
            sample.pop("weight")
        field.write_text(json.dumps(doc))
        code, _, err = run_cli(["norm", "--in", str(field)], capsys)
        assert code == 2
        assert "weights" in err

    # (t.p)^4 and T overflow at this scale: the standard integrand is not
    # finite, and nothing is printed
    @pytest.mark.filterwarnings("error")
    def test_nonfinite_norm_is_a_numeric_failure(self, tmp_path, capsys):
        amp, field = tmp_path / "amp.json", tmp_path / "field.json"
        assert run_cli(["packet", "--n", "4", "--mass", "0", "--points", "4", "--out", str(amp),
                        "--half-width", "1e100", "--sigma", "1e100"], capsys)[0] == 0
        assert run_cli(["synth", "--in", str(amp), "--out", str(field)], capsys)[0] == 0
        code, out, err = run_cli(["norm", "--in", str(field), "--t", "standard",
                                  "--standard-bw"], capsys)
        assert code == 1
        assert err.startswith("error: norm[standard]: integrand must be finite at sample index [")
        assert out == ""

    # the massless cut drops only the origin sample of odd N, at any scale
    def test_massless_grid_keeps_tiny_samples(self, tmp_path, capsys):
        assert build_grid(0.0, 1e-9, 12).p.shape == (1728, 4)
        assert build_grid(0.0, 1e-9, 5).p.shape == (124, 4)
        amp = tmp_path / "amp.json"
        code, _, err = run_cli(["packet", "--n", "2", "--mass", "0", "--points", "12",
                                "--half-width", "1e-9", "--out", str(amp)], capsys)
        assert code == 0, err
        assert read_amplitude_file(amp).p.shape == (1728, 4)

    # at L = 1e5 the corner sample of a unit-mass grid fails the timelike band
    # of core.on_shell, which the reader would reject
    def test_off_shell_grid_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(InvalidResolution, match=r"mass shell .* at sample index \[0\]"):
            build_grid(1.0, 1e5, 4)
        amp = tmp_path / "amp.json"
        code, _, err = run_cli(["packet", "--n", "2", "--mass", "1", "--points", "4",
                                "--half-width", "1e5", "--out", str(amp)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert not amp.exists()

    # N^3 samples beyond any host: numpy refuses the first N^3 array outright
    # (MemoryError at 1e6, ValueError at 1e7), so no memory is committed
    @pytest.mark.parametrize("points", ["1000000", "10000000"])
    def test_unallocatable_grid_is_a_usage_error(self, tmp_path, capsys, points):
        amp = tmp_path / "amp.json"
        code, _, err = run_cli(["packet", "--n", "2", "--mass", "1", "--points", points,
                                "--out", str(amp)], capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not amp.exists()


def test_traced_roundtrip_records_one_synthesis_and_one_extraction(tmp_path, monkeypatch):
    # perfbench's tracer records extraction under its second name,
    # bw.extract_massive, and synthesis where bw.synth calls synth_massive
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import harness
    import layers
    import workloads
    tracer = harness.Tracer()
    layers.instrument(tracer, harness.load_program(root))
    wl = workloads.CliRoundtrip(tmp_path / "work", n=2, points=3)
    try:
        records = harness.run_jobs(wl, wl.prepare(wl.inputs(5)), 0.0, 4, tracer)
    finally:
        wl.close()
    assert [r["failures"] for r in records] == [[]] * 4
    per_job = {job: [s["name"] for s in tracer.spans if s["job"] == job] for job in (1, 3)}
    for names in per_job.values():
        assert names.count("bw.synth_massive") == 1
        assert names.count("bw.extract_massive") == 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestDeterminism:
    def test_norm_bit_identical_across_threads(self, tmp_path):
        # the BLAS thread count is fixed when numpy loads, so each count runs
        # in its own process
        amp = tmp_path / "amp.json"
        field = tmp_path / "field.json"
        assert main(["packet", "--n", "2", "--mass", "1.0", "--out", str(amp),
                     "--points", "8", "--half-width", "2.5"]) == 0
        assert main(["synth", "--in", str(amp), "--out", str(field)]) == 0
        outputs = []
        for workers in ("1", "2", "8"):
            env = dict(os.environ, **{name: workers for name in BLAS_THREAD_VARS})
            result = subprocess.run(
                [sys.executable, "-m", "bwspinor.cli", "norm", "--in", str(field),
                 "--t", "null-omega"], check=True, env=env, capture_output=True)
            outputs.append(result.stdout)
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", range(-300, 301, 50))
@pytest.mark.parametrize("massive", [False, True], ids=["massless", "massive"])
@pytest.mark.parametrize("n", [1, 4, 10])
def test_every_accepted_packet_round_trips_or_synth_exits_1(tmp_path, capsys, n, massive,
                                                           exponent):
    # the packet, its mass included, scaled by 10^exponent: the members grow
    # like (p^0)^(n/2), so synth must refuse a sample they cannot hold, and
    # a field it writes must extract to the packet's amplitudes
    scale = f"1e{exponent}"
    amp, field, back = (str(tmp_path / name) for name in ("amp.json", "field.json", "back.json"))
    code, _, _ = run_cli(["packet", "--n", str(n), "--mass", scale if massive else "0",
                          "--points", "2", "--half-width", scale, "--sigma", scale,
                          "--out", amp], capsys)
    if code == 2:       # a grid the packet command refuses
        return
    assert code == 0
    code, _, err = run_cli(["synth", "--in", amp, "--out", field], capsys)
    if code == 1:
        assert err.startswith("error: ") and "at sample index [" in err
        assert len(err.splitlines()) == 1 and not os.path.exists(field)
        return
    assert code == 0, err
    code, _, err = run_cli(["extract", "--in", field, "--out", back], capsys)
    assert code == 0, err
    want = read_amplitude_file(amp).amplitudes.f
    got = read_amplitude_file(back).amplitudes.f
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the integrand's (t.p)^n may still leave the double range (exit 1)
    code, out, err = run_cli(["norm", "--in", field], capsys)
    assert (code, err) == (0, "") or (code == 1 and err.startswith("error: ")
                                      and "at sample index [" in err), err
    if code == 0:
        assert np.isfinite(float(out.split("=")[1]))
