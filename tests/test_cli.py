import errno
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqwalk as fw
from freqwalk import cli, engine, errors, gates
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

    @pytest.mark.parametrize("by_config", [False, True])
    @pytest.mark.parametrize("argv", [["band", "--n-k", "16"],
                                      ["evolve", "--steps", "2", "--half-width", "40"],
                                      ["gate", "--gate-name", "X"]])
    def test_one_gamma_outside_diffusion(self, argv, by_config, tmp_path, capsys):
        # each of these runs one Gamma: a list must not run its first alone
        if by_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"gamma": ["1pi", "3pi"]}))
            argv = argv + ["--config", str(cfg)]
        else:
            argv = argv + ["--gamma", "1pi,3pi"]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {argv[0]} takes one gamma, got 2 (a list is for diffusion)\n"
        assert not (tmp_path / "x").exists()

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

    def test_delta_narrower_than_a_site_runs(self, tmp_path, capsys):
        # (half_width / delta)^2 overflows a double; the edge check and the
        # envelope must read that as envelope 0, not raise
        argv = ["gate", "--gate-name", "X", "--delta", "1e-200"]
        code = main(argv + ["--out", str(tmp_path / "g.json")])
        err = capsys.readouterr().err
        assert code == 0 or code == 1 and err.startswith("error: ") and err.count("\n") == 1


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

    def test_unaddressable_kernel_names_gamma(self, tmp_path, capsys):
        # the default half_width needs the kernel of Gamma = 1e30, whose
        # Bessel recurrence would start at order ~1e30
        argv = ["evolve", "--gamma", "1e30", "--steps", "1", "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gamma 1e+30 too large") and err.count("\n") == 1

    @pytest.mark.parametrize("message", ["", "Unable to allocate 5.82 TiB"])
    def test_memory_error_exits_2(self, message, monkeypatch, tmp_path, capsys):
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "make_single_site", exhausted)
        argv = ["evolve", "--gamma", "1", "--steps", "1", "--half-width", "8"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"


class TestMemoryRefusal:
    """A walk whose kernel search or amplitudes, or a gate run whose
    packets, would not fit in physical memory is refused before any Bessel
    work or packet: the derived lattice by the closed-form bound on the
    kernel reach.  The host here has 1 MB, set by hand, so the refusals
    hold on any machine."""

    @pytest.fixture(autouse=True)
    def small_host(self, monkeypatch):
        def forbidden(work):
            def raising(*args):
                raise AssertionError(f"{work} before the refusal")

            return raising

        monkeypatch.setattr(errors, "physical_memory", lambda: 10**6)
        monkeypatch.setattr(engine, "bessel_j_sequence", forbidden("Bessel work"))
        # the packet builders of every gate, preparation and register drive
        monkeypatch.setattr(gates, "_packet", forbidden("a packet"))
        monkeypatch.setattr(gates, "_packet_q", forbidden("a packet"))

    @pytest.mark.parametrize(
        "argv,head",
        [(["evolve", "--gamma", "1e4", "--steps", "10"],  # N ~ 2e5: 6.4 MB
          "gamma 10000 too large for steps 10: the walk's amplitudes"),
         (["diffusion", "--gamma", "1,1e9", "--steps", "1"],
          "gamma 1e+09 too large for steps 1: the walk's amplitudes"),
         (["evolve", "--gamma", "1e5", "--steps", "0"],  # 2e5 orders, 3 arrays: 4.8 MB
          "gamma 100000 too large: its kernel search"),
         (["evolve", "--gamma", "1", "--steps", "1", "--half-width", "20000"],
          "half_width 20000 too large: the walk's amplitudes"),
         # N = 90001: one packet is 2.9 MB
         *[(argv + ["--delta", "10000"],
            "delta 10000 too large: its lattice (half_width 4.5 delta)")
           for argv in (["gate", "--gate-name", "X"],
                        ["prepare", "--phi1", "0", "--phi2", "0"], ["cnot"])]],
    )
    def test_refused_with_one_error_line(self, argv, head, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            f"error: {head} would exceed the 0.001 GB of physical memory\n")
        assert list(tmp_path.iterdir()) == []

    def test_counts_every_walk_of_a_diffusion(self):
        # one (2, 20001) complex state is 640 KB, two are 1.28 MB
        argv = ["diffusion", "--steps", "1", "--half-width", "10000", "--gamma"]
        assert cli.load_config(cli.build_parser().parse_args(argv + ["1"]))["half_width"] == 10000
        with pytest.raises(fw.ConfigurationError, match="^half_width 10000 too large"):
            cli.load_config(cli.build_parser().parse_args(argv + ["1,1"]))


@pytest.mark.parametrize("unknown", ["missing", "-1"])
def test_unreported_memory_is_the_addressable_limit(unknown, monkeypatch):
    if unknown == "missing":
        monkeypatch.delattr(os, "sysconf")
    else:
        monkeypatch.setattr(os, "sysconf", lambda name: -1)
    assert errors.physical_memory() == np.iinfo(np.intp).max


class TestStepsField:
    @pytest.mark.parametrize("command", ["evolve", "diffusion"])
    @pytest.mark.parametrize("steps", ["-1", "-3"])
    def test_negative_steps_named(self, command, steps, capsys):
        assert main([command, "--gamma", "1", "--steps", steps]) == 1
        assert capsys.readouterr().err == f"error: steps must be an integer >= 0, got '{steps}'\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_diffusion_of_zero_steps_has_no_rows(self, fmt, tmp_path):
        out = tmp_path / "d"
        argv = ["diffusion", "--gamma", "1,3pi", "--steps", "0", "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 0
        if fmt == "csv":
            lines = out.read_text().splitlines()
            assert len(lines) == 3 and lines[2] == "step,model,M"
        else:
            doc = json.loads(out.read_text())
            assert doc["columns"] == ["step", "model", "M"] and doc["rows"] == []


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
        assert list(tmp_path.iterdir()) == []  # step 0 was written, then removed

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
        assert list(tmp_path.iterdir()) == []  # nor leaves its temporary file


class _FullDisk:
    """A text stream that takes `room` characters, then raises OSError."""

    def __init__(self, out, room: int):
        self.out, self.room = out, room

    def write(self, text: str) -> None:
        if len(text) > self.room:
            self.out.write(text[: self.room])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(text)
        self.out.write(text)


_WALK = ["evolve", "--gamma", "3pi", "--steps", "6", "--half-width", "80"]


class TestAtomicOutput:
    """A dataset reaches --out or stdout whole or not at all."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("existing", [None, "old bytes\n"])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_failed_write_leaves_nothing(self, to_file, existing, fmt, tmp_path,
                                         monkeypatch, capsys):
        # the stream fails halfway through the rows: 5,000 of ~20,000 characters
        writer = "_write_csv" if fmt == "csv" else "_write_json"
        write = getattr(cli, writer)
        monkeypatch.setattr(cli, writer, lambda out, *parts: write(_FullDisk(out, 5000), *parts))
        out = tmp_path / "x"
        if existing is not None:
            out.write_text(existing)
        argv = _WALK + ["--format", fmt] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 28] No space left on device\n"
        if existing is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [out] and out.read_text() == existing

    @pytest.mark.parametrize("engine_name", ["spectral", "direct"])
    def test_interrupt_exits_130_and_leaves_nothing(self, tmp_path, engine_name):
        # Gamma = 0 never reaches the edge: 10^6 steps would take an hour.
        # The direct engine's worker thread must not hold up the exit
        # A failure keeps its cause: the child's exit code and whole stderr,
        # with every thread's stack if it hangs (-X faulthandler, SIGABRT)
        src = str(Path(cli.__file__).parents[1])
        argv = [sys.executable, "-X", "faulthandler", "-m", "freqwalk.cli", "evolve",
                "--gamma", "0", "--steps", "1000000", "--half-width", "3000",
                "--out", "x.csv", "--engine", engine_name]
        env = dict(os.environ, PYTHONPATH=src)
        with subprocess.Popen(argv, cwd=tmp_path, env=env, stderr=subprocess.PIPE,
                              text=True) as child:

            def stopped() -> str:
                """The child's stderr once it has exited, aborted if it still runs."""
                if child.poll() is None:
                    child.send_signal(signal.SIGABRT)
                try:
                    return child.communicate(timeout=30)[1]
                except subprocess.TimeoutExpired:
                    child.kill()
                    return child.communicate()[1]

            deadline = time.monotonic() + 30
            while not any(tmp_path.iterdir()):  # the walk is writing its rows
                assert child.poll() is None and time.monotonic() < deadline, (
                    f"before SIGINT: {stopped()!r}, exit {child.returncode}")
                time.sleep(0.01)
            child.send_signal(signal.SIGINT)
            try:
                err = child.communicate(timeout=30)[1]
            except subprocess.TimeoutExpired:
                err = "no exit 30 s after SIGINT: " + stopped()
            finally:
                child.kill()
        why = f"exit {child.returncode}, stderr {err!r}"
        assert child.returncode == 130, why
        assert err == "error: interrupted\n", why
        assert list(tmp_path.iterdir()) == [], why

    def test_interrupt_once_the_file_exists_leaves_nothing(self, tmp_path, monkeypatch,
                                                          capsys):
        # the interrupt lands as the temporary file is made, before any row
        def interrupted_open(*args, **kwargs):
            open(*args, **kwargs).close()
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "open", interrupted_open, raising=False)
        assert main(_WALK + ["--out", str(tmp_path / "x.csv")]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    def test_taken_temporary_name_is_left_alone(self, tmp_path, monkeypatch, capsys):
        # a file that holds the temporary name is not ours to remove
        monkeypatch.setattr(cli.os, "urandom", lambda n: bytes(n))
        theirs = tmp_path / f"freqwalk-{bytes(6).hex()}.tmp"
        theirs.write_text("theirs\n")
        out = str(tmp_path / "x.csv")
        assert main(_WALK + ["--out", out]) == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {out!r}\n"
        assert list(tmp_path.iterdir()) == [theirs] and theirs.read_text() == "theirs\n"

    def test_abort_writes_nothing_to_stdout(self, capsys):
        assert main(["evolve", "--gamma", "3pi", "--steps", "50", "--half-width", "20"]) == 2
        assert capsys.readouterr().out == ""

    def test_new_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "x.csv"
        umask = os.umask(0o027)
        try:
            assert main(_WALK + ["--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_symlink_written_through(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "x.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(_WALK + ["--out", str(link)]) == 0
        assert main(_WALK) == 0
        assert link.is_symlink() and target.read_text() == capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.csv", "x.csv"]

    def test_fifo_is_written_not_replaced(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main(_WALK + ["--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive() and stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert main(_WALK) == 0
        assert got == [capsys.readouterr().out]
        assert list(tmp_path.iterdir()) == [fifo]

    def test_missing_directory_names_out(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.csv")
        assert main(_WALK + ["--out", out]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {out!r}\n"


def test_long_walk_holds_one_step(tmp_path, monkeypatch):
    # 61 steps of N = 3001 sites: every step's P(m) with its int64 step and
    # m columns would take 61 * 3001 * 24 bytes = 4.4 MB.  One step's
    # cells, texts and row strings, the walk's (2, N) arrays and the
    # spectral blocks take about 1.3 MB.
    monkeypatch.setattr(cli, "_VERSION", "test")  # no metadata import in the trace
    argv = ["evolve", "--gamma", "3pi", "--steps", "60", "--half-width", "1500"]
    cfg = cli.load_config(cli.build_parser().parse_args(argv))
    # the first-use tables (the spectral blocks, m^2) and imports, as any
    # earlier run on this lattice leaves them, so the test does not depend
    # on which tests ran before it
    cli.run({**cfg, "steps": 1}, str(tmp_path / "warm.csv"))
    tracemalloc.start()
    try:
        cli.run(cfg, str(tmp_path / "x.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
        argv = ["diffusion", "--gamma", ",".join(map(repr, gamma)), "--steps", str(steps)]
        half_width = cli.load_config(cli.build_parser().parse_args(argv))["half_width"]
        lmax = max(translation_kernel(g, 0.0).lmax for g in gamma)
        assert half_width >= steps * lmax + EDGE_MARGIN + 1
        assert _strip_fast_factors(2 * half_width + 1) == 1

    # lmax = 7 at gamma = 1: a scan over the odd sizes from N = 140,000,000,013
    # up to the next fast size, 3^19 * 5^3, would take 2.6e9 steps
    @pytest.mark.parametrize("steps", [10**10, 10**15, 10**20])
    def test_huge_walk_sized_at_once(self, steps, monkeypatch):
        # on a host with memory enough for any walk: on a real one these walks
        # are refused at once (TestMemoryRefusal), and sizing must not hang either
        monkeypatch.setattr(errors, "physical_memory", lambda: math.inf)
        argv = ["evolve", "--gamma", "1", "--steps", str(steps)]
        start = time.perf_counter()
        half_width = cli.load_config(cli.build_parser().parse_args(argv))["half_width"]
        assert time.perf_counter() - start < 1.0
        assert half_width >= steps * 7 + EDGE_MARGIN + 1
        assert _strip_fast_factors(2 * half_width + 1) == 1
        if steps == 10**10:
            assert 2 * half_width + 1 == 3**19 * 5**3


def _strip_fast_factors(n: int) -> int:
    """n with its factors 3, 5 and 7 divided out."""
    for p in (3, 5, 7):
        while n % p == 0:
            n //= p
    return n


def test_import_leaves_package_metadata_unloaded():
    # the version is looked up when the first dataset is written, and the
    # direct engine's worker thread is built on the first direct step: each
    # import would add 8-20 ms to every run
    src = str(Path(cli.__file__).parents[1])
    code = (
        "import sys, freqwalk.cli, freqwalk as fw\n"
        "print('importlib.metadata' in sys.modules, 'concurrent.futures' in sys.modules)\n"
        "s = fw.make_single_site(0, fw.Polarization.H, fw.LatticeConfig(10))\n"
        "fw.step(s, fw.ModulationParams(gamma=1.0))\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "False False\nFalse\n"


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
        _, blocks = cli.run_diffusion(cfg)
        step, model, values = map(np.concatenate, zip(*blocks))
        classical = values[model == "classical"]
        assert np.array_equal(step[model == "classical"], np.arange(1, n + 1))
        assert np.array_equal(classical, np.sqrt(np.arange(1, n + 1)))
        binomial = [classical_walk_distribution(i).diffusion_distance()
                    for i in range(1, n + 1)]
        assert np.max(np.abs(classical - binomial)) < 1e-12


def _synthetic_rows(text: str, fmt: str) -> list[str]:
    """The rows of the `synthetic:` models, as written: CSV lines, or the
    text of each JSON row."""
    if fmt == "csv":
        rows = text.splitlines()
    else:  # each row from its "[" to its "]"
        rows = [row.split("\n  ]")[0] for row in text.split("\n  [")]
    return [row for row in rows if "synthetic:" in row]


class TestLockstepDiffusion:
    """`diffusion` walks its Gammas in lockstep: each Gamma's rows keep the
    bytes of the same command run with that Gamma alone."""

    GAMMAS = ["0.06pi", "1pi", "3pi", "1pi"]  # a repeated Gamma, too

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("engine_name", ["spectral", "direct"])
    def test_rows_equal_single_gamma_rows(self, fmt, engine_name, tmp_path):
        # the golden diffusion sizes
        argv = ["diffusion", "--steps", "12", "--half-width", "160",
                "--format", fmt, "--engine", engine_name]

        def synthetic(gammas):
            out = tmp_path / f"{len(gammas)}.{fmt}"
            assert main(argv + ["--gamma", ",".join(gammas), "--out", str(out)]) == 0
            return _synthetic_rows(out.read_text(), fmt)

        together = synthetic(self.GAMMAS)
        assert len(together) == 12 * len(self.GAMMAS)
        assert together == [row for g in self.GAMMAS for row in synthetic([g])]

    @pytest.mark.parametrize("engine_name, memo", [
        ("spectral", fw.engine._grid_blocks), ("direct", fw.engine._direct_kernels)])
    def test_each_gamma_table_built_once(self, engine_name, memo, tmp_path):
        memo.cache_clear()
        argv = ["diffusion", "--gamma", "0.06pi,1pi,3pi", "--steps", "12",
                "--half-width", "160", "--engine", engine_name]
        assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
        assert memo.cache_info().misses == 3

    def test_abort_at_first_leaking_step(self, tmp_path, capsys):
        # 1pi is listed first but leaks later than 3pi
        params = lambda g: fw.ModulationParams(
            gamma=g, theta=-np.pi / 2, phi_h=0.0, phi_v=0.75 * np.pi)
        aborts = []
        for gamma in (np.pi, 3 * np.pi):
            state = fw.make_single_site(0, fw.Polarization.H, fw.LatticeConfig(60))
            with pytest.raises(fw.BoundaryLeakError) as err:
                fw.evolve(state, params(gamma), 40)
            aborts.append(err.value.step)
        assert aborts[1] < aborts[0]
        capsys.readouterr()
        code = main(["diffusion", "--gamma", "1pi,3pi", "--steps", "40",
                     "--half-width", "60", "--out", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].endswith(f"at step {aborts[1]}")
        assert list(tmp_path.iterdir()) == []


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


def _split(columns, cuts) -> list:
    """The columns as blocks cut at the row indices `cuts` (clipped to the
    table; a repeated cut gives a block of zero rows)."""
    n = len(columns[0])
    bounds = [0, *sorted(min(c, n) for c in cuts), n]
    return [[c[a:b] for c in columns] for a, b in zip(bounds, bounds[1:])]


CUTS = st.just(list(range(13))) | st.lists(st.integers(0, 12), max_size=16)  # 1-row blocks, or any


@st.composite
def shared_blocks(draw):
    """Blocks in the layout of `evolve`: a 0-d integer (one value for the
    whole block), one integer array shared by every block, a float column;
    and the same table as whole columns."""
    n_rows = draw(st.integers(1, 6))
    shared = np.array(draw(st.lists(REPEATED_INT64, min_size=n_rows, max_size=n_rows)))
    keys = draw(st.lists(INT64, max_size=4))
    floats = [np.array(draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows)))
              for _ in keys]
    blocks = [[np.int64(k), shared, f] for k, f in zip(keys, floats)]
    columns = [np.repeat(np.array(keys, dtype=np.int64), n_rows),
               np.tile(shared, len(keys)), np.concatenate([[], *floats])]
    return blocks, columns


@st.composite
def template_blocks(draw):
    """Blocks whose columns keep their kinds: a 0-d integer ("step"), an
    integer array that blocks of one length reuse ("shared": the same
    object, an equal copy, or new values), a new integer array of any sign
    ("fresh"), text and floats (non-finite ones included); block lengths
    change, and may be 0.  Returns the blocks and the same table as whole
    columns."""
    kinds = draw(st.lists(st.sampled_from(["step", "shared", "fresh", "text", "float"]),
                          min_size=1, max_size=5).filter(lambda ks: set(ks) != {"step"}))
    shared = {}  # column: the array that the next block of its length may reuse
    blocks, columns = [], [[] for _ in kinds]
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.sampled_from([0, 1, 2, 3]))
        block = []
        for j, kind in enumerate(kinds):
            if kind == "step":
                c = np.int64(draw(INT64))
            elif kind in ("shared", "fresh"):
                reuse = kind == "shared" and j in shared and len(shared[j]) == n
                how = draw(st.sampled_from(["same", "copy", "new"])) if reuse else "new"
                if how == "new":
                    c = np.array(draw(st.lists(REPEATED_INT64 | INT64, min_size=n, max_size=n)),
                                 dtype=np.int64)
                else:
                    c = shared[j] if how == "same" else shared[j].copy()
                shared[j] = c
            else:
                cells, dtype = COLUMN_KINDS[kind]
                c = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=dtype)
            block.append(c)
            columns[j].append(np.full(n, c) if c.ndim == 0 else c)
        blocks.append(block)
    return blocks, [np.concatenate(c) for c in columns]


class TestWriteCsv:
    @settings(max_examples=100, deadline=None)
    @given(columns=csv_tables(), cuts=CUTS)
    def test_matches_per_cell_formatter(self, columns, cuts):
        header = [f"c{j}" for j in range(len(columns))]
        out = io.StringIO()
        cli._write_csv(out, {"experiment": "band"}, header, _split(columns, cuts))
        *head, body = out.getvalue().split("\n", 3)
        assert head[2] == ",".join(header)
        assert body == reference_csv_rows(columns)

    @settings(max_examples=50, deadline=None)
    @given(table=shared_blocks())
    def test_scalar_and_shared_columns(self, table):
        blocks, columns = table
        out = io.StringIO()
        cli._write_csv(out, {"experiment": "evolve"}, ["a", "b", "c"], blocks)
        assert out.getvalue().split("\n", 3)[3] == reference_csv_rows(columns)

    @settings(max_examples=100, deadline=None)
    @given(table=template_blocks())
    def test_template_follows_each_block(self, table):
        blocks, columns = table
        header = [f"c{j}" for j in range(len(columns))]
        out = io.StringIO()
        cli._write_csv(out, {"experiment": "band"}, header, blocks)
        assert out.getvalue().split("\n", 3)[3] == reference_csv_rows(columns)


class TestReadmeEvolveDataset:
    def test_matches_per_cell_formatter(self, tmp_path):
        # 153,153 rows in 51 blocks, one per step
        argv = ["evolve", "--gamma", "3pi", "--steps", "50", "--half-width", "1500"]
        out = tmp_path / "evolve.csv"
        assert main(argv + ["--out", str(out)]) == 0
        cfg = cli.load_config(cli.build_parser().parse_args(argv))
        lattice = fw.LatticeConfig(cfg["half_width"])
        params = fw.ModulationParams(cfg["gamma"][0], cfg["phi_h"], cfg["phi_v"], cfg["theta"])
        traj = fw.evolve(fw.make_single_site(0, fw.Polarization.H, lattice), params,
                         cfg["steps"], record=("prob",))
        columns = [np.repeat(traj.steps, lattice.n_sites),
                   np.tile(lattice.sites, len(traj.records)), traj.series("prob").ravel()]
        *head, body = out.read_text().split("\n", 3)
        assert head[2] == "step,m,prob"
        got, want = body.splitlines(), reference_csv_rows(columns).splitlines()
        assert len(got) == len(want)
        # the first differing row, not a diff of 153,153 rows
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert bad is None, f"row {bad}: {got[bad]!r} != {want[bad]!r}"


def _json_reference(cfg, header, columns) -> str:
    doc = {"metadata": cli._metadata(cfg), "columns": header,
           "rows": [list(r) for r in zip(*(c.tolist() for c in columns))]}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class TestWriteJson:
    @settings(max_examples=100, deadline=None)
    @given(columns=csv_tables(), cuts=CUTS)
    def test_matches_json_dump(self, columns, cuts):
        header = [f"c{j}" for j in range(len(columns))]
        cfg = {"experiment": "band"}
        out = io.StringIO()
        cli._write_json(out, cfg, header, _split(columns, cuts))
        assert out.getvalue() == _json_reference(cfg, header, columns)

    @settings(max_examples=50, deadline=None)
    @given(table=shared_blocks())
    def test_scalar_and_shared_columns(self, table):
        blocks, columns = table
        cfg = {"experiment": "evolve"}
        out = io.StringIO()
        cli._write_json(out, cfg, ["a", "b", "c"], blocks)
        assert out.getvalue() == _json_reference(cfg, ["a", "b", "c"], columns)

    @settings(max_examples=100, deadline=None)
    @given(table=template_blocks())
    def test_template_follows_each_block(self, table):
        blocks, columns = table
        header = [f"c{j}" for j in range(len(columns))]
        cfg = {"experiment": "band"}
        out = io.StringIO()
        cli._write_json(out, cfg, header, blocks)
        assert out.getvalue() == _json_reference(cfg, header, columns)

    @pytest.mark.parametrize("value", [np.float64("nan"), np.float64("inf"),
                                       np.float64("-inf"), np.array("ab", dtype=object)],
                             ids=["nan", "inf", "-inf", "text"])
    def test_scalar_text_and_non_finite_columns(self, value):
        # a 0-d column stands for its value in every row of its block
        floats = [np.array([1.0, 2.5]), np.array([]), np.array([-3.0])]
        blocks = [[np.asarray(value), f] for f in floats]
        columns = [np.full(3, value.item(), dtype=value.dtype), np.concatenate(floats)]
        cfg = {"experiment": "evolve"}
        out = io.StringIO()
        cli._write_json(out, cfg, ["a", "b"], blocks)
        assert out.getvalue() == _json_reference(cfg, ["a", "b"], columns)


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
        assert code == 0 or out.getvalue() == ""  # a failed run writes no dataset
