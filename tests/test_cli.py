import ast
import csv
import inspect
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import crnoma_aoi
from crnoma_aoi import experiments, oracle, simulator, validation
from crnoma_aoi.cli import main
from crnoma_aoi.experiments import CSV_HEADER, PRESETS, ExperimentSpec, run_experiment
from crnoma_aoi.model import SystemConfig, db_to_linear
from crnoma_aoi.simulator import AoiReport, run_many
from crnoma_aoi.validation import run_validation


class TestPresets:
    def test_all_presets_validate(self):
        for name, spec in PRESETS.items():
            spec.validate()
            assert spec.preset == name

    def test_fig4b_axes(self):
        spec = PRESETS["fig4b"]
        assert spec.gen_model == "GAW"
        assert spec.M_values == (8,)
        assert spec.R_values == (1.0,)
        assert spec.T_values == (0.5, 1.0, 1.5)

    def test_fig6_axes(self):
        for name in ("fig6a", "fig6b"):
            spec = PRESETS[name]
            assert (spec.gen_model, spec.M_values, spec.R_values,
                    spec.T_values) == ("GAR", (8,), (1.0,), (0.5,))

    def test_fig5_sweeps_m(self):
        spec = PRESETS["fig5"]
        assert spec.M_values == (4, 8, 16, 32)
        assert spec.R_values == (1.5,)
        assert spec.T_values == (0.5,)


class TestRunExperiment:
    def small_spec(self, **kw):
        base = dict(preset="custom", schemes=("TDMA", "CR-NOMA"),
                    gen_model="GAW", M_values=(4,), T_values=(1.0,),
                    R_values=(1.0,), snr_db_values=(0.0, 10.0),
                    frames=2000, seed=3)
        base.update(kw)
        return ExperimentSpec(**base)

    def test_header_and_shape(self):
        csv_text = run_experiment(self.small_spec())
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        # 2 schemes x 2 SNRs, GAW -> one overall row each
        assert len(lines) == 1 + 4

    def test_gar_emits_per_user_rows(self):
        csv_text = run_experiment(self.small_spec(gen_model="GAR",
                                                  schemes=("TDMA",),
                                                  snr_db_values=(0.0,)))
        lines = csv_text.strip().split("\n")
        assert len(lines) == 1 + 1 + 4  # header + overall + 4 users

    def test_analytic_only(self):
        csv_text = run_experiment(self.small_spec(outputs="analytic"))
        row = csv_text.strip().split("\n")[1].split(",")
        assert row[8] != "" and row[9] == "" and row[10] == ""

    def test_fig4b_zero_db_value(self):
        spec = self.small_spec(schemes=("TDMA",), M_values=(8,), T_values=(1.5,),
                               snr_db_values=(0.0,), outputs="analytic")
        row = run_experiment(spec).strip().split("\n")[1].split(",")
        assert float(row[8]) == pytest.approx(28.1194, abs=1e-3)


class TestSharedDraws:
    """Grid points of one M share a seed and their channel draws."""

    def spec(self, **kw):
        base = dict(schemes=("TDMA", "CR-NOMA"), gen_model="GAR", M_values=(2, 4),
                    T_values=(0.5, 1.5), R_values=(1.0,), snr_db_values=(0.0, 10.0),
                    users=(1, 2), frames=2000, seed=3)
        base.update(kw)
        return ExperimentSpec(**base)

    @staticmethod
    def rows(csv_text):
        header, *lines = csv_text.strip().split("\n")
        return [dict(zip(header.split(","), line.split(","))) for line in lines]

    @pytest.mark.parametrize("gen_model", ["GAW", "GAR"])
    def test_rows_reproduced_by_run_at_seed_column(self, gen_model):
        spec = self.spec(gen_model=gen_model,
                         users=(1, 2) if gen_model == "GAR" else None)
        for row in self.rows(run_experiment(spec)):
            P = db_to_linear(float(row["snr_db"]))
            [report] = run_many([SystemConfig(
                M=int(row["M"]), T=float(row["T"]), R=float(row["R"]), P=P, P_S=P,
                scheme=row["scheme"], gen_model=gen_model, frames=spec.frames,
                seed=int(row["seed"]))])
            if row["user_id"] == "overall":
                sim, hw = report.overall_aoi, report.overall_halfwidth
            else:
                k = int(row["user_id"]) - 1
                sim, hw = report.per_user_aoi[k], report.per_user_halfwidth[k]
            assert (row["aoi_sim"], row["sim_ci_halfwidth"]) == (f"{sim:.6g}", f"{hw:.6g}")

    def test_added_snr_leaves_other_rows_unchanged(self):
        before = run_experiment(self.spec()).split("\n")
        after = run_experiment(self.spec(snr_db_values=(0.0, 5.0, 10.0))).split("\n")
        assert [line for line in after if line.split(",")[6:7] != ["5"]] == before
        assert len(after) > len(before)

    def test_seed_streams_do_not_collide(self):
        # every row carries the spec seed; the simulator folds M into it
        a = self.rows(run_experiment(self.spec(seed=0)))
        b = self.rows(run_experiment(self.spec(seed=1)))
        assert {r["seed"] for r in a} == {"0"} and {r["seed"] for r in b} == {"1"}
        assert all(x["aoi_sim"] != y["aoi_sim"] for x, y in zip(a, b))

    def test_gains_drawn_once_per_pair_and_chunk(self, monkeypatch):
        calls = []

        def counting(rng, size):
            calls.append(size)
            return draw(rng, size)

        draw = simulator.draw_gains
        monkeypatch.setattr(simulator, "draw_gains", counting)
        spec = replace(PRESETS["fig4b"], frames=2000)
        lines = run_experiment(spec).strip().split("\n")
        assert len(lines) == 1 + 54
        # M/2 = 4 pairs x 20 chunks (one per 100-frame batch), shared by
        # all 54 grid points
        assert len(calls) == 4 * 20


class TestSweepGrid:
    def test_run_many_gets_the_validated_configs(self, monkeypatch):
        calls = []

        def capture(configs):
            calls.append(configs)
            return [AoiReport([1.0] * c.M, 1.0, [0.0] * c.M, 0.0) for c in configs]

        monkeypatch.setattr(experiments, "run_many", capture)
        spec = ExperimentSpec(schemes=("TDMA", "CR-NOMA"), gen_model="GAR",
                              M_values=(4, 2), T_values=(1.5, 0.5), R_values=(1.0,),
                              snr_db_values=(10, 0), users=(1, 2), frames=200,
                              seed=3)
        configs = spec.validate()
        assert list(configs) == sorted(configs) and len(configs) == 16
        rows = TestSharedDraws.rows(run_experiment(spec))
        # one run_many call per M, each with that M's configs in grid order
        assert sorted(call[0].M for call in calls) == [2, 4]
        for call in calls:
            assert call == [c for c in configs.values() if c.M == call[0].M]
        assert {c.seed for c in configs.values()} == {spec.seed}
        for row in rows:
            key = (row["scheme"], int(row["M"]), float(row["T"]), float(row["R"]),
                   float(row["snr_db"]))
            assert row["seed"] == str(configs[key].seed)
        assert [r["user_id"] for r in rows] == ["overall", "1", "2"] * 16


class TestSpecValidation:
    @given(T=st.floats(min_value=1e-3, max_value=1e3),
           R=st.floats(min_value=0.0, max_value=10.0),
           snr=st.floats(min_value=-50.0, max_value=50.0))
    def test_finite_spec_accepted(self, T, R, snr):
        ExperimentSpec(T_values=(T,), R_values=(R,), snr_db_values=(snr,)).validate()

    @given(axis=st.sampled_from(["T_values", "R_values", "snr_db_values"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_axis_rejected_before_any_run(self, axis, bad):
        spec = ExperimentSpec(**{axis: (1.0, bad)}, frames=2000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "run_many", pytest.fail)
            with pytest.raises(ValueError):
                run_experiment(spec)

    def test_negative_seed_rejected_before_seeding(self, monkeypatch):
        monkeypatch.setattr(experiments, "run_many", pytest.fail)
        with pytest.raises(ValueError, match="seed"):
            run_experiment(ExperimentSpec(seed=-1))

    def test_negative_m_named(self):
        with pytest.raises(ValueError, match="M must be"):
            ExperimentSpec(M_values=(-2,)).validate()

    @given(frames=st.integers(min_value=-10 ** 6, max_value=19))
    def test_too_few_frames_rejected(self, frames):
        with pytest.raises(ValueError, match="at least 20 frames"):
            ExperimentSpec(frames=frames).validate()


class TestDegenerateSpecs:
    AXES = {"schemes": ("TDMA", "CR-NOMA"), "M_values": (2, 4, 8),
            "T_values": (0.5, 1.5), "R_values": (0.5, 1.0),
            "snr_db_values": (0.0, 10.0)}

    @given(axis=st.sampled_from(sorted(AXES)), data=st.data())
    def test_duplicate_axis_value_rejected(self, axis, data):
        values = list(self.AXES[axis])
        values.insert(data.draw(st.integers(0, len(values))),
                      data.draw(st.sampled_from(values)))
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec(**{axis: tuple(values)}).validate()

    @given(axis=st.sampled_from(sorted(AXES)))
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="empty"):
            ExperimentSpec(**{axis: ()}).validate()

    @given(users=st.lists(st.integers(1, 8), min_size=1, max_size=6))
    def test_users_accepted_iff_distinct(self, users):
        spec = ExperimentSpec(gen_model="GAR", M_values=(8,), users=tuple(users))
        if len(set(users)) == len(users):
            spec.validate()
        else:
            with pytest.raises(ValueError, match="duplicate"):
                spec.validate()

    @pytest.mark.parametrize("flags", [
        ["--T", "0.5,0.5"], ["--snr-db", "0,10,0"], ["--M", "4,8,4"],
        ["--schemes", "TDMA,TDMA"], ["--gen-model", "GAR", "--users", "1,1"],
        ["--M", ""], ["--T", ""], ["--R", ","], ["--snr-db", ""],
        ["--seed", "-1"], ["--gen-model", "GAW", "--users", "1,2"], ["--sim-only"],
        ["--R", "2000", "--M", "4", "--T", "1", "--snr-db", "0"],
        ["--M", "4", "--T", "1", "--snr-db", "4000"],
        ["--gen-model", "GAR", "--M", "2", "--users", "3"], ["--warmup", "5"]])
    def test_cli_exits_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--analytic-only", *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestValidate:
    def test_leaves_no_temp_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        checks = run_validation("fast")
        assert any(c.name == "renewal_cross_check" and c.passed for c in checks)
        assert list(tmp_path.iterdir()) == []

    def test_same_checks_in_same_order_at_every_level(self):
        # Every add() call is a top-level statement of run_validation, so
        # each level runs each check once, in source order; the fast run
        # then shows the names the full run prints.
        func = ast.parse(inspect.getsource(validation.run_validation)).body[0]
        calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "add"]
        top_level = [stmt.value for stmt in func.body
                     if isinstance(stmt, ast.Expr) and stmt.value in calls]
        names = [call.args[0].value for call in top_level]
        assert len(top_level) == len(calls) == len(set(names)) == 17
        assert [c.name for c in run_validation("fast")] == names

    @pytest.mark.parametrize("fail", [False, True])
    def test_grid_worker_joined(self, fail, monkeypatch):
        # the probability grid runs on a worker thread: its error reaches the
        # caller, and the thread is gone when run_validation returns or raises
        def broken(*args):
            raise RuntimeError("grid failed")

        if fail:
            monkeypatch.setattr(oracle, "estimate_gar_partitions", broken)
        before = threading.active_count()
        if fail:
            with pytest.raises(RuntimeError, match="grid failed"):
                run_validation("fast")
        else:
            assert all(c.passed for c in run_validation("fast"))
        assert threading.active_count() == before

    def test_negative_seed_rejected_before_worker(self, monkeypatch):
        started = []
        monkeypatch.setattr(validation, "_probability_grid",
                            lambda *args: started.append(args))
        before = threading.active_count()
        with pytest.raises(ValueError, match="seed"):
            run_validation("full", -1)
        with pytest.raises(ValueError, match="level"):
            run_validation("bogus")
        assert started == [] and threading.active_count() == before

    def test_cli_import_loads_no_thread_pool(self):
        src = os.path.dirname(os.path.dirname(crnoma_aoi.__file__))
        out = subprocess.run(
            [sys.executable, "-c", "import crnoma_aoi.cli, sys; "
             "print('concurrent.futures' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True, timeout=60)
        assert out.stdout == "False\n"


class TestCliMain:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["run", "--schemes", "TDMA", "--gen-model", "GAW",
                   "--M", "4", "--T", "1", "--R", "1", "--snr-db", "0",
                   "--frames", "1000", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 2

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_run_rejects_bad_out_before_sweep(self, out, tmp_path, monkeypatch, capsys):
        # a missing parent directory, or a directory itself
        monkeypatch.setattr("crnoma_aoi.cli.run_experiment",
                            lambda spec: pytest.fail("the sweep ran"))
        path = str(tmp_path / out)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "fig4b", "--out", path])
        assert exc.value.code == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_run_sim_only(self, capsys):
        assert main(["run", "--sim-only", "--gen-model", "GAR", "--M", "4",
                     "--users", "1,3", "--frames", "2000"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(r["aoi_analytic"] == "" for r in rows)
        assert all(math.isfinite(float(r[col])) for r in rows
                   for col in ("aoi_sim", "sim_ci_halfwidth"))

    def test_run_stdout_deterministic(self, capsys):
        args = ["run", "--preset", "fig4b", "--analytic-only"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "preset=fig4b\n"
            "snr_db_values=0\n"
            "outputs=analytic\n"
            "# comment line\n")
        # list flags strip each token, as int() and float() do themselves
        assert main(["run", "--config", str(conf), "--T", "1.5",
                     "--schemes", "TDMA, CR-NOMA"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 2  # both schemes at one SNR, one T

    def test_preset_flag_beats_config_file_preset(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("preset=fig4b\noutputs=analytic\n")
        assert main(["run", "--preset", "fig4a", "--config", str(conf)]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert rows and all(row.startswith("fig4a,") for row in rows)

    def test_empty_users_clears_preset_users(self, capsys):
        args = ["run", "--preset", "fig6a", "--gen-model", "GAW", "--analytic-only"]
        with pytest.raises(SystemExit):
            main(args)
        assert main([*args, "--users", ""]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 18 and all(",overall," in row for row in rows)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "nonsense"])
        assert exc.value.code == 2

    def test_bad_config_key(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        # a line's error names the file, the line and the key
        for line, error in (("bogus_key=1", ":1: bogus_key: unknown config key"),
                            ("no_equals_sign", ":1: no_equals_sign: expected key=value"),
                            ("frames=", ":1: frames: invalid literal"),
                            ("T_values=0.5,abc", ":1: T_values: could not convert"),
                            ("preset=fig99", ":1: preset: unknown preset"),
                            ("gen_model=XYZ", ":1: gen_model: must be one of"),
                            ("warmup=100", ":1: warmup: unknown config key"),
                            ("frames=10", ":1: frames: need at least 20 frames"),
                            ("M_values=4,4", ":1: M_values: duplicate values"),
                            ("outputs=bogus", ":1: outputs: must be one of"),
                            ("schemes=TDMA,XYZ", ":1: schemes: scheme must be one of"),
                            ("M_values=4,3", ":1: M_values: M must be an even"),
                            ("T_values=0.5,-1", ":1: T_values: T must be > 0"),
                            ("seed=-1", ":1: seed: seed must be >= 0"),
                            ("users=1", ":1: users: users apply to GAR only"),
                            ("M_values=", ":1: M_values: must not be empty"),
                            ("T_values=", ":1: T_values: must not be empty"),
                            ("schemes=", ":1: schemes: must not be empty"),
                            ("snr_db_values=", ":1: snr_db_values: must not be empty"),
                            ("R_values=nan", ":1: R_values: R must be finite"),
                            ("R_values=-1", ":1: R_values: R must be >= 0"),
                            ("R_values=2000", ":1: R_values: R=2000.0 gives a SINR"),
                            ("snr_db_values=inf", ":1: snr_db_values: inf dB is not")):
            conf.write_text(line + "\n")
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", str(conf)])
            assert exc.value.code == 2
            assert error in capsys.readouterr().err

    @pytest.mark.parametrize("lines,flags,error", [
        ("gen_model=GAR\nM_values=8\nusers=0", [],
         ":3: users and {conf}:2: M_values: user 0 out of range for M=8"),
        ("gen_model=GAR\nM_values=8\nusers=5", ["--M", "4"],
         ":3: users: user 5 out of range for M=4"),
        ("preset=fig6a\nM_values=2", [], ":2: M_values: user 3 out of range for M=2")])
    def test_config_users_rule_names_its_lines(self, tmp_path, capsys, lines,
                                              flags, error):
        # users must lie in 1..M: the error names each line of the file that
        # set one of the two keys, unless a flag overrode it
        conf = tmp_path / "users.conf"
        conf.write_text(lines + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--analytic-only", "--config", str(conf), *flags])
        assert exc.value.code == 2
        assert f"error: {conf}{error.format(conf=conf)}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("gen_model", ["GAW", "GAR"])
    def test_run_never_delivering_prints_inf(self, gen_model, capsys):
        # eps = 2^200 - 1 is finite, but exp(eps/P) in the closed forms is not
        assert main(["run", "--R", "200", "--M", "4", "--T", "1", "--snr-db", "0",
                     "--gen-model", gen_model, "--analytic-only"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(r["aoi_analytic"] == "inf" for r in rows)

    def test_run_p0_rounding_to_one_prints_inf(self, capsys):
        # R = 0.5 at -20 dB: the published GAR partitions have p0 == 1.0
        assert main(["run", "--gen-model", "GAR", "--R", "0.5", "--snr-db", "-20",
                     "--M", "8", "--T", "0.5", "--analytic-only"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        noma = [r for r in rows if r["scheme"] == "CR-NOMA"]
        assert len(noma) == 9 and all(r["aoi_analytic"] == "inf" for r in noma)
        assert all(math.isfinite(float(r["aoi_analytic"]))
                   for r in rows if r["scheme"] == "TDMA")

    @pytest.mark.parametrize("passed", [True, False])
    def test_validate_command(self, passed, monkeypatch, capsys):
        calls = []

        def checks(**kwargs):
            calls.append(kwargs)
            return [validation.CheckResult("ok", True, "a"),
                    validation.CheckResult("maybe", passed, "b")]

        monkeypatch.setattr("crnoma_aoi.cli.run_validation", checks)
        rc = 0 if passed else 1
        assert main(["validate", "--level", "full", "--seed", "3"]) == rc
        assert main(["validate"]) == rc   # run_validation's own defaults
        assert calls == [{"level": "full", "seed": 3}, {}]
        out = capsys.readouterr().out
        assert ("[FAIL] maybe: b" in out) != passed and "[PASS] ok: a" in out

    def test_probs_command(self, capsys):
        assert main(["probs", "--trials", "20000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "gaw.p0" in out
        assert "MISMATCH" not in out
        # every closed-form value ends where the header's "closed form" does
        header, *rows = out.splitlines()[1:]
        end = header.index("closed form") + len("closed form")
        for row in rows:
            name, value = row.split()[:2]
            assert row.index(value, len(name)) + len(value) == end

    def test_probs_power_mismatch_notes(self, capsys):
        assert main(["probs", "--trials", "20000", "--ps-db", "5"]) == 0
        out = capsys.readouterr().out
        assert "certified for P = P_S" in out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_probs_rejects_nonpositive_trials(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probs", "--trials", trials])
        assert exc.value.code == 2
        assert "error: --trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--R", "nan"), ("--R", "inf"), ("--snr-db", "inf"), ("--snr-db", "nan"),
        ("--snr-db", "-inf"), ("--ps-db", "nan"), ("--ps-db", "inf")])
    def test_probs_rejects_non_finite(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probs", "--trials", "100", f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} must be finite" in captured.err

    @pytest.mark.parametrize("flag,value", [
        ("--snr-db", "4000"), ("--R", "2000"), ("--snr-db", "-4000"),
        ("--seed", "-1")])
    def test_probs_rejects_out_of_float_range(self, flag, value, capsys):
        # 2^R or 10^(dB/10) overflows, the power underflows to 0, or the seed
        # is negative
        with pytest.raises(SystemExit) as exc:
            main(["probs", "--trials", "100", f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and value in captured.err
