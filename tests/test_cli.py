import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqwalk import cli
from freqwalk.baselines import classical_walk_distribution
from freqwalk.cli import main, parse_angle
from freqwalk.engine import translation_kernel
from freqwalk.lattice import EDGE_MARGIN


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

    @pytest.mark.parametrize(
        "argv,config,field",
        [(["band"], {"n_k": "abc", "gamma": "1pi"}, "n_k"),
         (["band"], {"n_k": 16.5, "gamma": "1pi"}, "n_k"),
         (["gate", "--gate-name", "X"], {"delta": "abc"}, "delta"),
         (["gate", "--gate-name", "X"], {"delta": [200]}, "delta"),
         (["evolve"], {"steps": "ten", "gamma": "1pi"}, "steps"),
         (["evolve"], {"half_width": None, "gamma": "1pi"}, "half_width"),
         (["diffusion"], {"steps": True, "gamma": "1pi"}, "steps"),
         (["band"], {"theta": [1], "gamma": "1pi"}, "theta"),
         (["band"], {"theta": None, "gamma": "1pi"}, "theta"),
         (["prepare", "--phi2", "0"], {"phi1": True}, "phi1"),
         (["band"], {"gamma": [1, None]}, "gamma"),
         (["band"], {"gamma": []}, "gamma"),
         (["gate", "--gate-name", "Rz"], {"rz_phi": {"a": 1}}, "rz_phi"),
         (["gate"], {"gate_name": [1]}, "gate_name"),
         (["cnot"], {"sequence": 5}, "sequence"),
         (["cnot"], {"sequence": [["cnot"]]}, "sequence"),
         (["band", "--gamma", "1"], {"format": "xml"}, "format"),
         (["band", "--gamma", "1"], {"engine": "bogus"}, "engine")],
    )
    def test_config_field_types(self, argv, config, field, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,config,name",
        [(["evolve", "--gamma", "1", "--steps", "abc"], None, "steps"),
         (["band", "--gamma", "1", "--format", "xml"], None, "format"),
         (["band", "--gamma", "1", "--n-k", "1e3"], None, "n_k"),
         (["bogus", "--gamma", "1"], None, "bogus"),
         (["band", "--gamma", "1", "--bogus"], None, "--bogus"),
         (["band", "--gamma", "1", "--steps"], None, "--steps"),
         (["diffusion"], {"gamma": "1pi", "stepz": 5}, "stepz"),
         (["diffusion"], {"gamma": "1pi", "half-width": 9}, "half-width"),
         (["evolve", "--gamma", "1"], {"use_gaussian": "no"}, "use_gaussian")],
    )
    def test_bad_flag_or_key_exits_1(self, argv, config, name, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        assert "usage" not in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["band", "--help"])
        assert exit_info.value.code == 0
        assert "--half-width" in capsys.readouterr().out

    def test_help_lists_each_flag_once(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        options = capsys.readouterr().out.split("options:")[1]
        for key in ["config", "out", *cli.FIELDS]:
            assert options.count(f"  --{key.replace('_', '-')} ") == 1

    def test_flags_before_or_after_command(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["band", "--gamma", "1", "--n-k", "16", "--out", str(a)]) == 0
        assert main(["--gamma", "1", "--n-k", "16", "--out", str(b), "band"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("config", [{}, {"sequence": "cnot,path_x"},
                                        {"sequence": ["cnot", "path_x"]}])
    def test_sequence_list_or_comma_string(self, config, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["cnot", "--config", str(cfg)] + ([] if config else ["--sequence", "cnot,path_x"])
        assert cli.load_config(cli.build_parser().parse_args(argv))["sequence"] == [
            "cnot", "path_x"]

    @pytest.mark.parametrize("delta", ["0", "-5", "inf", "nan"])
    def test_bad_delta_named(self, delta, tmp_path, capsys):
        argv = ["gate", "--gate-name", "X", "--delta", delta]
        assert main(argv + ["--out", str(tmp_path / "g.json")]) == 1
        err = capsys.readouterr().err
        assert f"delta must be positive and finite, got {float(delta)}" in err


class TestOversizedInputs:
    """Sizes past what memory can hold end in one `error:` line.  Nothing
    here allocates: the exit-1 lattices are refused as configs, before any
    array exists, and the exit-2 case raises its MemoryError by hand."""

    @pytest.mark.parametrize(
        "argv",
        [["evolve", "--gamma", "1", "--steps", "1", "--half-width", str(2**60)],
         ["diffusion", "--gamma", "1", "--steps", "1", "--half-width", str(2**62)],
         ["gate", "--gate-name", "X", "--delta", "1e300"]],
    )
    def test_unaddressable_lattice_exits_1(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        given = "delta" if argv[0] == "gate" else "half_width"  # the field the user set
        assert err.startswith(f"error: {given} ") and err.count("\n") == 1

    @pytest.mark.parametrize("delta", ["1e17", "1e300", "1e308"])
    @pytest.mark.parametrize(
        "argv", [["gate", "--gate-name", "X"], ["prepare", "--phi1", "0", "--phi2", "0"],
                 ["cnot"]],
    )
    def test_unaddressable_gate_lattice_names_delta(self, argv, delta, tmp_path, capsys):
        # gates._drive derives half_width = ceil(4.5 delta); the error names
        # the delta given, not that 18- to 309-digit number
        assert main(argv + ["--delta", delta, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: delta {float(delta):g} too large") and err.count("\n") == 1

    @pytest.mark.parametrize("message", ["", "Unable to allocate 5.82 TiB"])
    def test_memory_error_exits_2(self, message, monkeypatch, tmp_path, capsys):
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "make_single_site", exhausted)
        argv = ["evolve", "--gamma", "1", "--steps", "1", "--half-width", "8"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"


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

    def test_small_lattice_boundary_mass_is_a_probability(self, tmp_path, capsys):
        # 5 sites, all within EDGE_MARGIN of an edge: each counts once
        code = main(
            ["evolve", "--gamma", "1", "--steps", "1", "--half-width", "2",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        mass = float(errors[0].split("boundary mass ")[1].split()[0])
        assert 0 < mass <= 1

    def test_engine_warnings_print_once_as_warning_lines(self, tmp_path, capsys):
        code = main(
            ["evolve", "--gamma", "1", "--steps", "1", "--half-width", "2",
             "--engine", "direct", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "UserWarning" not in err and "engine.py" not in err
        lines = err.splitlines()
        assert [line.split()[0] for line in lines] == ["warning:", "warning:", "error:"]
        assert "boundary mass" in lines[0] and "norm leak" in lines[1]

    def test_repeated_engine_warning_prints_once(self, tmp_path, capsys):
        # the direct engine warns of boundary mass at 3 steps, then the
        # monitor aborts at step 36
        out = tmp_path / "x.csv"
        code = main(
            ["evolve", "--gamma", "3pi", "--steps", "40", "--half-width", "300",
             "--engine", "direct", "--out", str(out)]
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in lines] == ["warning:", "error:"]
        assert "boundary mass" in lines[0] and "step 36" in lines[1]
        assert not out.exists()  # a run that fails in the physics writes nothing


def _echoed_config(path) -> dict:
    return json.loads(path.read_text().splitlines()[1].removeprefix("# config="))


class TestDefaultHalfWidth:
    @pytest.mark.parametrize("command", ["evolve", "diffusion"])
    def test_walk_at_3pi_fits(self, command, tmp_path):
        # 40 steps of at most lmax = 21 sites: 846, rounded up to N = 1701 = 3^5 * 7
        out = tmp_path / "x.csv"
        assert main([command, "--gamma", "3pi", "--steps", "40", "--out", str(out)]) == 0
        assert _echoed_config(out)["half_width"] == 850

    @pytest.mark.parametrize(
        "argv,half_width",
        [(["evolve", "--gamma", "3pi"], 2187),  # 2106 -> N = 4375 = 5^4 * 7
         (["diffusion", "--gamma", "0.06pi,3pi,1pi"], 2187),
         (["diffusion", "--gamma", "30pi", "--steps", "10"], 1200),  # 1186 -> N = 7^4
         (["evolve", "--gamma", "0", "--steps", "0"], 7),
         (["evolve", "--gamma", "3pi", "--half-width", "301"], 301),
         (["band", "--gamma", "3pi"], 300),
         (["gate", "--gate-name", "X"], 300)],
    )
    def test_derived_for_walks_only(self, argv, half_width):
        cfg = cli.load_config(cli.build_parser().parse_args(argv))
        assert cfg["half_width"] == half_width

    @settings(max_examples=50, deadline=None)
    @given(gamma=st.lists(st.floats(0, 40), min_size=1, max_size=3),
           steps=st.integers(0, 200))
    def test_fast_size_past_the_reach(self, gamma, steps):
        argv = ["evolve", "--gamma", ",".join(map(repr, gamma)), "--steps", str(steps)]
        half_width = cli.load_config(cli.build_parser().parse_args(argv))["half_width"]
        lmax = max(translation_kernel(g, 0.0).lmax for g in gamma)
        assert half_width >= steps * lmax + EDGE_MARGIN + 1
        n = 2 * half_width + 1
        for p in (3, 5, 7):
            while n % p == 0:
                n //= p
        assert n == 1


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

    def test_classical_curve_is_sqrt_n(self):
        n = 300
        defaults = {key: f.default for key, f in cli.FIELDS.items() if f.default is not None}
        cfg = dict(defaults, steps=n, gamma=[0.0], half_width=10)
        _, (step, model, values) = cli.run_diffusion(cfg)
        classical = values[model == "classical"]
        assert np.array_equal(step[model == "classical"], np.arange(1, n + 1))
        assert np.array_equal(classical, np.sqrt(np.arange(1, n + 1)))
        binomial = [classical_walk_distribution(i).diffusion_distance()
                    for i in range(1, n + 1)]
        assert np.max(np.abs(classical - binomial)) < 1e-12


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


def reference_csv_rows(columns) -> str:
    """The per-cell formatter the block writer must reproduce byte for byte."""
    lines = []
    for i in range(len(columns[0])):
        cells = (c[i] for c in columns)
        lines.append(
            ",".join(c if isinstance(c, str) else format(float(c), ".17g") for c in cells)
            + "\n"
        )
    return "".join(lines)


FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, float("inf"), -float("inf")]
)
INT64 = st.integers(-(2**63), 2**63 - 1)
# Few values, so they recur within and across blocks: the integer writer
# formats each distinct value once.  '%.17g' rounds 2**53 + 1 and 10**17.
REPEATED_INT64 = st.sampled_from(
    [0, 1, -1, 2**53, -(2**53), 2**53 + 1, 10**16, -(10**16), 10**17, -(10**17),
     -(2**63), 2**63 - 1]
)
REPEATED_UINT64 = st.sampled_from([0, 1, 2**53 + 1, 10**17, 2**63, 2**64 - 1])
COLUMN_KINDS = {
    "float": (FLOATS, np.float64),
    "int": (INT64, np.int64),
    "int_repeated": (REPEATED_INT64, np.int64),
    "uint_repeated": (REPEATED_UINT64, np.uint64),
    "text": (st.text(max_size=10), object),
}


@st.composite
def csv_tables(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        cells, dtype = COLUMN_KINDS[kind]
        values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(np.array(values, dtype=dtype))
    return columns


class TestWriteCsv:
    @settings(max_examples=100, deadline=None)
    @given(columns=csv_tables(), block_rows=st.integers(1, 5))
    def test_matches_per_cell_formatter(self, columns, block_rows):
        header = [f"c{j}" for j in range(len(columns))]
        out = io.StringIO()
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
            cli._write_csv(out, {"experiment": "band"}, header, columns)
        *head, body = out.getvalue().split("\n", 3)
        assert head[2] == ",".join(header)
        assert body == reference_csv_rows(columns)


class TestReadmeEvolveDataset:
    def test_matches_per_cell_formatter(self, tmp_path):
        # 153,153 rows over 37 blocks: the step and m cells recur across blocks
        argv = ["evolve", "--gamma", "3pi", "--steps", "50", "--half-width", "1500"]
        out = tmp_path / "evolve.csv"
        assert main(argv + ["--out", str(out)]) == 0
        header, columns = cli.run_evolve(cli.load_config(cli.build_parser().parse_args(argv)))
        *head, body = out.read_text().split("\n", 3)
        assert head[2] == ",".join(header)
        got, want = body.splitlines(), reference_csv_rows(columns).splitlines()
        assert len(got) == len(want)
        # the first differing row, not a diff of 153,153 rows
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert bad is None, f"row {bad}: {got[bad]!r} != {want[bad]!r}"


class TestWriteJson:
    @settings(max_examples=100, deadline=None)
    @given(columns=csv_tables(), block_rows=st.integers(1, 5))
    def test_matches_json_dump(self, columns, block_rows):
        header = [f"c{j}" for j in range(len(columns))]
        cfg = {"experiment": "band"}
        out = io.StringIO()
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
            cli._write_json(out, cfg, header, columns)
        doc = {"metadata": cli._metadata(cfg), "columns": header,
               "rows": [list(r) for r in zip(*(c.tolist() for c in columns))]}
        assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


# CLI fuzzing.  A draw picks a command and gives each field it uses a
# value, by flag or in the --config file; half the draws then break one
# field, and some break the command line or the config file itself or add
# an unknown config key, which must exit 1.  The sizes stay small (n_k <=
# 64, steps <= 5, half_width <= 120, delta <= 20) so every draw runs in
# milliseconds.
ANGLES = st.sampled_from(["0", "1.5", "-2", "pi", "-pi", "0.5pi", "3pi"]) | st.floats(-10, 10)
OPS = st.lists(st.sampled_from(["cnot", "path_x"]), max_size=3)
GOOD = {
    "gamma": st.lists(st.sampled_from(["0", "0.06pi", "pi", "3pi"]) | st.floats(0, 10),
                      min_size=1, max_size=3),
    **{key: ANGLES for key in ("theta", "phi_h", "phi_v", "q", "rz_phi", "phi1", "phi2")},
    "n_k": st.integers(16, 64),
    "steps": st.integers(0, 5),
    "half_width": st.integers(1, 120),
    "delta": st.floats(0.5, 20),
    "gate_name": st.sampled_from(["X", "Y", "Z", "H", "Rz"]),
    "sequence": OPS,
    "format": st.sampled_from(["csv", "json"]),
    "engine": st.sampled_from(["spectral", "direct"]),
}
JUNK = st.one_of(  # no digits in the text, which could spell a large size
    st.none(), st.booleans(), st.text(alphabet="xyz ,.-\n\x00é", max_size=4),
    st.lists(st.sampled_from([None, 1, "x", "cnot"]), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
    st.sampled_from([float("nan"), float("inf"), -1.5, 0, -3]),
)
BAD = {
    **{key: JUNK | st.sampled_from(["", "abc", "nan", "pipi", "1e999"])
       for key in GOOD if key not in ("gate_name", "sequence")},
    "gamma": JUNK | st.just([]) | st.sampled_from(["1,,2", "-1"]),
    "gate_name": JUNK | st.sampled_from(["Q", ""]),
    "sequence": JUNK | st.lists(st.sampled_from(["cnot", "foo"]), min_size=1, max_size=2),
}
COMMANDS = ["band", "evolve", "diffusion", "gate", "prepare", "cnot"]
REQUIRED = {"band": ["gamma"], "evolve": ["gamma"], "diffusion": ["gamma"],
            "gate": ["gate_name"], "prepare": ["phi1", "phi2"], "cnot": []}
SIZES = ["n_k", "steps", "half_width", "delta"]  # the defaults would run large


def _flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@st.composite
def cli_invocations(draw):
    """An argv list, the bytes of a --config file, and whether the command
    line or the config file was mangled (which must exit 1)."""
    command = draw(st.sampled_from(COMMANDS))
    extra = draw(st.lists(st.sampled_from(sorted(GOOD)), max_size=4, unique=True))
    values = {key: draw(GOOD[key]) for key in SIZES + REQUIRED[command] + extra}
    broken = draw(st.none() | st.sampled_from(sorted(BAD)))
    if broken is not None:
        values[broken] = draw(BAD[broken])
    argv, config = [command], {}
    for key, value in values.items():
        # a flag carries text: other broken values go into the config
        in_config = key == broken and not isinstance(value, str)
        if in_config or draw(st.booleans()):
            config[key] = value
            continue
        flag, text = "--" + key.replace("_", "-"), _flag_text(value)
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    mangle = draw(st.sampled_from(["none"] * 6 + ["command", "flag", "config", "key"]))
    if mangle == "key":
        unknown = st.text(max_size=8).filter(lambda k: k not in cli.FIELDS)
        config[draw(unknown | st.sampled_from(["stepz", "half-width", "use_gaussian"]))] = 1
    text = json.dumps(config).encode()
    if mangle == "command":
        argv[0] = "bogus"
    elif mangle == "flag":
        argv.append("--bogus")
    elif mangle == "config":  # not a JSON object, or not UTF-8
        text = draw(st.sampled_from([b"", b"[1, 2]", b"5", b"{", b"null", b"\xff"]))
    return argv, text, mangle != "none"


class TestCliFuzz:
    @settings(max_examples=300, deadline=None)
    @given(invocation=cli_invocations())
    def test_exit_contract(self, invocation):
        argv, config, mangled = invocation
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "cfg.json")
            path.write_bytes(config)
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + ["--config", str(path)])
        assert code == 1 if mangled else code in (0, 1, 2)
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(errors) == (0 if code == 0 else 1), err.getvalue()
        assert "Traceback" not in out.getvalue() + err.getvalue()
