import ast
import csv
import inspect
import io
import math
import os
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, strategies as st

from crnoma_aoi import experiments, oracle, simulator, validation
from crnoma_aoi.cli import main
from crnoma_aoi.experiments import CSV_HEADER, PRESETS, ExperimentSpec, run_experiment
from crnoma_aoi.model import GEN_MODELS, SCHEMES, SystemConfig, db_to_linear
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
        # one usable CPU keeps the run in this process, where draws are counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
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

    def test_unknown_outputs_rejected(self):
        # the CLI and the config file reject such a value first; a library
        # caller meets this rule alone
        with pytest.raises(ValueError, match="outputs must be one of"):
            ExperimentSpec(outputs="bogus").validate()

    @given(users=st.lists(st.integers(1, 8), min_size=1, max_size=6))
    def test_users_accepted_iff_distinct(self, users):
        spec = ExperimentSpec(gen_model="GAR", M_values=(8,), users=tuple(users))
        if len(set(users)) == len(users):
            spec.validate()
        else:
            with pytest.raises(ValueError, match="duplicate"):
                spec.validate()

    # argparse's rules that a run line meets; the ids are the names these
    # rows have always had in the suite's listing
    @pytest.mark.parametrize("flags, error", [
        pytest.param(["--sim-only"],
                     "argument --sim-only: not allowed with argument --analytic-only",
                     id="flags11"),
        pytest.param(["--warmup", "5"], "unrecognized arguments: --warmup 5",
                     id="flags15"),
    ])
    def test_cli_exits_2(self, flags, error, capsys):
        err = TestCliMain.rejected(capsys, ["run", "--analytic-only", *flags], usage="")
        assert f"error: {error}" in err

    @pytest.mark.parametrize("fields, message", [
        (dict(users=(1,)), "users apply to GAR only"),
        (dict(gen_model="GAR", users=(0,)), "user 0 out of range for M=8"),
        (dict(gen_model="GAR", M_values=(8, 2), users=(3,)), "user 3 out of range for M=2"),
    ], ids=["GAW", "below-1", "above-M"])
    def test_users_rules(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentSpec(**fields).validate()


class TestValidate:
    @pytest.fixture(scope="class")
    def fast_run(self):
        # one run_validation("fast", 7) shared by the tests below: its
        # checks and (name, configs) of each simulator call it made
        calls = []

        def recorded(name, func):
            def call(arg):
                calls.append((name, list(arg) if name == "run_many" else [arg]))
                return func(arg)
            return call

        with pytest.MonkeyPatch.context() as mp:
            for name in ("run_many", "deliveries"):
                mp.setattr(validation, name, recorded(name, getattr(validation, name)))
            return run_validation("fast", 7), calls

    def test_same_checks_in_same_order_at_every_level(self, fast_run):
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
        assert [c.name for c in fast_run[0]] == names

    def test_every_simulation_at_the_run_seed(self, fast_run):
        # validate derives no seed of its own: the eight M = 8 configs come
        # as two common-draw sweeps of four (GAW, then GAR), and the renewal
        # check simulates all four M = 4 scheme/model pairs, both schemes of
        # one model on common draws
        calls = fast_run[1]
        assert {c.seed for _, configs in calls for c in configs} == {7}
        sweeps = [configs for _, configs in calls if configs[0].M == 8]
        assert [len(configs) for configs in sweeps] == [4, 4]
        assert len({(c.scheme, c.gen_model, c.P) for c in sum(sweeps, [])}) == 8
        renewal = sorted((name, c.scheme, c.gen_model) for name, configs in calls
                         for c in configs if c.M == 4)
        assert renewal == sorted(product(("deliveries", "run_many"), SCHEMES, GEN_MODELS))
        assert [[(c.scheme, c.gen_model) for c in configs] for name, configs in calls
                if name == "run_many" and configs[0].M == 4] == [
            [(s, g) for s in SCHEMES] for g in GEN_MODELS]

    def test_renewal_nan_fails(self, monkeypatch):
        # a NaN difference fails the per-user test, which a worst-case max
        # alone would let through
        monkeypatch.setattr(oracle, "renewal_aoi",
                            lambda by_user, t_end: {u: math.nan for u in by_user})
        monkeypatch.setattr(validation, "_probability_grid",
                            lambda lv, rng: (True, 0, 0, 0.0))
        checks = {c.name: c.passed for c in run_validation("fast", 7)}
        assert not checks["renewal_cross_check"]

    def test_every_check_passes_at_fast_seed_7(self, fast_run):
        assert all(c.passed for c in fast_run[0])

    def test_grid_error_reaches_caller(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("grid failed")

        monkeypatch.setattr(oracle, "estimate_gar_partitions", broken)
        with pytest.raises(RuntimeError, match="grid failed"):
            run_validation("fast")

    def test_bad_seed_or_level_rejected_before_grid(self, monkeypatch):
        started = []
        monkeypatch.setattr(validation, "_probability_grid",
                            lambda *args: started.append(args))
        with pytest.raises(ValueError, match="seed"):
            run_validation("full", -1)
        with pytest.raises(ValueError, match="level"):
            run_validation("bogus")
        assert started == []


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
        assert path in self.rejected(capsys, ["run", "--preset", "fig4b", "--out", path])
        assert not (tmp_path / "missing").exists()

    def test_run_sim_only(self, capsys):
        assert main(["run", "--sim-only", "--gen-model", "GAR", "--M", "4",
                     "--users", "1,3", "--frames", "2000"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and all(r["aoi_analytic"] == "" for r in rows)
        assert all(math.isfinite(float(r[col])) for r in rows
                   for col in ("aoi_sim", "sim_ci_halfwidth"))

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
        self.rejected(capsys, args)
        assert main([*args, "--users", ""]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 18 and all(",overall," in row for row in rows)

    @staticmethod
    def rejected(capsys, args, usage=None):
        """stderr of a command line that exits 2 and prints nothing on stdout,
        after argparse's usage line for ``usage`` if that is given."""
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert usage is None or err.startswith(f"usage: crnoma-aoi {usage}")
        return err

    def test_usage_error_exit_code(self, capsys):
        # argparse's choices; its other rules are TestDegenerateSpecs::test_cli_exits_2
        for args, error in (
                (["run", "--preset", "fig99"], "argument --preset: invalid choice: 'fig99'"),
                (["run", "--gen-model", "GAX"], "argument --gen-model: invalid choice: 'GAX'"),
                (["validate", "--level", "max"], "argument --level: invalid choice: 'max'")):
            assert f"error: {error}" in self.rejected(capsys, args, usage="")

    # one row per typed flag of run, which shows that the flag reaches its
    # rule; each branch of the rules is tested at the model
    RUN_REJECTED = [
        ("--schemes", "TDMA,XYZ", "scheme must be one of ('TDMA', 'CR-NOMA'), got 'XYZ'"),
        ("--M", "4,3", "M must be an even integer >= 2, got 3"),
        ("--T", "0.5,-1", "T must be > 0, got -1.0"),
        ("--R", "nan", "R must be finite, got nan"),
        ("--snr-db", "inf", "inf dB is not a finite positive linear power ratio"),
        ("--users", "1,1", "duplicate values in (1, 1)"),
        ("--frames", "10", "need at least 20 frames, got 10"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ]

    @pytest.mark.parametrize("flag, value, rule", RUN_REJECTED,
                             ids=[f"{flag}-{value}" for flag, value, _ in RUN_REJECTED])
    def test_run_rejects(self, flag, value, rule, capsys):
        err = self.rejected(capsys, ["run", "--analytic-only", f"{flag}={value}"], "run ")
        assert err.endswith(f"crnoma-aoi run: error: argument {flag}: {rule}\n")

    def test_bad_config_key(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        # a line's error names the file, the line and the key: one row per
        # key, one for each rule of the file's own, and frames parsed by int
        for line, error in (("bogus_key=1", ":1: bogus_key: unknown config key"),
                            ("no_equals_sign", ":1: no_equals_sign: expected key=value"),
                            ("preset=fig99", ":1: preset: unknown preset"),
                            ("schemes=TDMA,XYZ", ":1: schemes: scheme must be one of"),
                            ("gen_model=XYZ", ":1: gen_model: must be one of"),
                            ("M_values=", ":1: M_values: must not be empty"),
                            ("T_values=0.5,-1", ":1: T_values: T must be > 0"),
                            ("R_values=nan", ":1: R_values: R must be finite"),
                            ("snr_db_values=inf", ":1: snr_db_values: inf dB is not"),
                            ("users=1", ":1: users: users apply to GAR only"),
                            ("outputs=bogus", ":1: outputs: must be one of"),
                            ("frames=", ":1: frames: invalid literal"),
                            ("frames=10", ":1: frames: need at least 20 frames"),
                            ("seed=-1", ":1: seed: seed must be >= 0")):
            conf.write_text(line + "\n")
            assert error in self.rejected(capsys, ["run", "--config", str(conf)])

    def test_missing_config_file(self, tmp_path, capsys):
        # an OSError, like a bad value, exits 2 with one error line
        path = tmp_path / "missing.conf"
        err = self.rejected(capsys, ["run", "--config", str(path)])
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize("lines,flags,error", [
        ("gen_model=GAR\nM_values=8\nusers=0", [],
         ":3: users and {conf}:2: M_values: user 0 out of range for M=8"),
        ("gen_model=GAR\nM_values=8\nusers=5", ["--M", "4"],
         ":3: users: user 5 out of range for M=4"),
        ("preset=fig6a\nM_values=2", [], ":2: M_values: user 3 out of range for M=2"),
    ], ids=["both-lines", "M-from-flag", "users-from-preset"])
    def test_config_users_rule_names_its_lines(self, tmp_path, capsys, lines,
                                              flags, error):
        # users must lie in 1..M: the error names each line of the file that
        # set one of the two keys, unless a flag overrode it
        conf = tmp_path / "users.conf"
        conf.write_text(lines + "\n")
        err = self.rejected(capsys, ["run", "--analytic-only", "--config", str(conf), *flags])
        assert f"error: {conf}{error.format(conf=conf)}\n" in err

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

    def test_validate_rejects_negative_seed(self, monkeypatch, capsys):
        # rejected as the flag is parsed, before any check starts
        monkeypatch.setattr("crnoma_aoi.cli.run_validation", pytest.fail)
        err = self.rejected(capsys, ["validate", "--seed", "-1"])
        assert "error: argument --seed: seed must be >= 0, got -1" in err

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

    # one row per flag of probs, as for run
    DB_RULE = "dB is not a finite positive linear power ratio"
    PROBS_REJECTED = [
        ("--trials", "0", "trials must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--R", "nan", "R must be finite"),
        ("--snr-db", "inf", f"inf {DB_RULE}"),
        ("--ps-db", "nan", f"nan {DB_RULE}"),
    ]

    @pytest.mark.parametrize("flag, value, rule", PROBS_REJECTED,
                             ids=[f"{flag}-{value}" for flag, value, _ in PROBS_REJECTED])
    def test_probs_rejects(self, flag, value, rule, capsys):
        err = self.rejected(capsys, ["probs", "--trials", "100", f"{flag}={value}"], "probs ")
        assert f"error: argument {flag}: {rule}" in err
