import json

import numpy as np
import pytest

from freqwalk.cli import main, parse_angle


class TestAngleParsing:
    def test_plain_float(self):
        assert parse_angle("1.25") == 1.25

    @pytest.mark.parametrize(
        "text,value",
        [("0.27pi", 0.27 * np.pi), ("-0.5pi", -0.5 * np.pi), ("pi", np.pi),
         ("2pi", 2 * np.pi), ("-pi", -np.pi)],
    )
    def test_pi_suffix(self, text, value):
        assert parse_angle(text) == pytest.approx(value)


class TestConfigHandling:
    def test_empty_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("")
        assert main(["band", "--config", str(cfg)]) == 1

    def test_missing_required_field(self, capsys):
        assert main(["band"]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": "1pi", "n_k": 16}))
        out = tmp_path / "a.csv"
        assert main(["band", "--config", str(cfg), "--gamma", "0", "--out", str(out)]) == 0
        # gamma 0: flat bands at +-0.125 with the default angles
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        eps = {float(r[1]) for r in rows} | {float(r[2]) for r in rows}
        assert all(abs(abs(e) - 0.125) < 1e-12 for e in eps)

    @pytest.mark.parametrize(
        "argv",
        [["band", "--gamma", "1", "--n-k", "8"],
         ["gate", "--gate-name", "Q"],
         ["evolve", "--gamma", "nan", "--steps", "1", "--half-width", "8"],
         ["cnot", "--sequence", "foo", "--delta", "20"]],
    )
    def test_configuration_error_in_run_exits_1(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("delta", ["0", "-5", "inf", "nan"])
    def test_bad_delta_named(self, delta, tmp_path, capsys):
        argv = ["gate", "--gate-name", "X", "--delta", delta]
        assert main(argv + ["--out", str(tmp_path / "g.json")]) == 1
        assert "delta" in capsys.readouterr().err


class TestBandCommand:
    def test_csv_layout_and_monotone_q(self, tmp_path):
        out = tmp_path / "band.csv"
        code = main(
            ["band", "--gamma", "3pi", "--n-k", "64", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "q,eps_plus,eps_minus,nz_plus,nz_minus"
        qs = [float(r.split(",")[0]) for r in data[1:]]
        assert qs == sorted(qs)
        assert len(qs) == 64

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["band", "--gamma", "1", "--n-k", "32", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvolveCommand:
    def test_gamma_zero_stays_at_origin(self, tmp_path):
        out = tmp_path / "e.csv"
        code = main(
            ["evolve", "--gamma", "0", "--steps", "10", "--half-width", "8",
             "--out", str(out)]
        )
        assert code == 0
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("step"):
                continue
            step, m, prob = line.split(",")
            if float(prob) > 1e-20:  # FFT round-trip noise is ~1e-32
                assert int(m) == 0

    def test_boundary_leak_exit_code(self, tmp_path):
        code = main(
            ["evolve", "--gamma", "3pi", "--steps", "50", "--half-width", "20",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestDiffusionCommand:
    def test_model_list(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(
            ["diffusion", "--gamma", "0.06pi,1pi", "--steps", "20",
             "--half-width", "120", "--out", str(out)]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if not (line.startswith("#") or line.startswith("step"))
        ]
        models = {r[1] for r in rows}
        assert "classical" in models and "dtqw" in models
        assert sum(1 for m in models if m.startswith("synthetic:")) == 2
        by_model = {m: [r for r in rows if r[1] == m] for m in models}
        assert all(len(v) == 20 for v in by_model.values())


class TestReportCommands:
    def test_gate_report_json(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(
            ["gate", "--gate-name", "X", "--delta", "200", "--q", "0.6666666666666666pi",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["hs_distance"] < 1e-4
        assert doc["report"]["gate_fidelity"] > 0.9999
        assert doc["metadata"]["config"]["experiment"] == "gate"

    def test_infeasible_gate_exit_code(self, tmp_path):
        code = main(
            ["gate", "--gate-name", "Rz", "--rz-phi", "2pi", "--gamma", "1pi",
             "--out", str(tmp_path / "g.json")]
        )
        assert code == 2

    def test_prepare_report(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(
            ["prepare", "--phi1", "0.5pi", "--phi2", "0", "--delta", "100",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["state_fidelity"] >= 0.999

    def test_cnot_report_default_sequence(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(["cnot", "--delta", "100", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["sequence"] == ["path_x", "cnot", "path_x"]
        assert doc["report"]["max_abs_error"] < 1e-3
        re0 = np.array(doc["report"]["reconstructed"]["re"])
        assert re0.shape == (4, 4)
