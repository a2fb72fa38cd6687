import csv
import json
import os
import stat

import pytest

from zonodiff import Zonotope, contains_point
from zonodiff import cli
from zonodiff.cli import (
    CONTAINMENT_TOL,
    RECORD_COLUMNS,
    SUMMARY_COLUMNS,
    ConfigError,
    ContainmentViolationError,
    RunConfig,
    execute_run,
    grid_cells,
    load_config,
    main,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


GRID_QUICK = ["--steps", "25", "--seed", "3"]
QUICK = GRID_QUICK + ["--snapshot-every", "10"]


class TestConfig:
    def test_defaults_valid(self):
        cfg = RunConfig().validate()
        assert cfg.algorithm == "sm"

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": 10, "seed": 4}))
        cfg = load_config(str(path), {"seed": 9})
        assert cfg.steps == 10
        assert cfg.seed == 9

    @pytest.mark.parametrize("content", ['["steps"]', "5", "null"])
    def test_non_object_config_rejected(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        path.write_text(content)
        with pytest.raises(ConfigError):
            load_config(str(path), {})
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path)]) == 1

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"stepz": 10}))
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZONODIFF_OUTDIR", str(tmp_path))
        cfg = load_config(None, {})
        assert cfg.out_dir == str(tmp_path)

    @pytest.mark.parametrize("flag", ["--process-noise", "--measurement-noise"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_rejected(self, tmp_path, flag, value):
        out = tmp_path / "out"
        assert main(["run", flag, value, "--out", str(out)] + QUICK) == 1
        assert not out.exists()

    def test_radius_metric_option_removed(self, tmp_path):
        # Records and summaries always carry the F-radius, and the summary
        # the half diagonal too: there is nothing to choose.
        out = tmp_path / "out"
        assert main(["run", "--radius-metric", "frobenius", "--out",
                     str(out)] + QUICK) == 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"radius_metric": "frobenius"}))
        assert main(["run", "--config", str(path), "--out", str(out)]
                    + QUICK) == 1
        assert not out.exists()

    @pytest.mark.parametrize("values", [
        {"diffusion": "off"}, {"timing": "no"}, {"diffusion": 0},
        {"seed": True}, {"seed": 1.5}, {"q": 20.5}, {"steps": "10"},
        {"neighbors": 4.0}, {"snapshot_every": None}, {"burn_in": False},
        {"process_noise": True}, {"measurement_noise": "8"},
        {"algorithm": None}, {"out_dir": 3}, {"topology_file": 1}],
        ids=lambda v: "-".join(f"{k}={v[k]!r}" for k in v))
    def test_config_value_types_checked(self, tmp_path, monkeypatch, values):
        # No --out flag, so a config-file out_dir is not overridden.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ZONODIFF_OUTDIR", str(tmp_path / "out"))
        (tmp_path / "cfg.json").write_text(json.dumps({"steps": 10, **values}))
        assert main(["run", "--config", "cfg.json"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            RunConfig(algorithm="bogus").validate()
        with pytest.raises(ConfigError):
            RunConfig(steps=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(neighbors=3).validate()


class TestCmdRun:
    def test_row_count_and_schema(self, tmp_path):
        rc = main(["run", "--alg", "sm", "--neighbors", "4", "--out",
                   str(tmp_path)] + QUICK)
        assert rc == 0
        rows = read_csv(tmp_path / "records.csv")
        assert rows[0] == RECORD_COLUMNS
        assert len(rows) - 1 == 8 * 25
        summary = read_csv(tmp_path / "summary.csv")
        assert summary[0] == SUMMARY_COLUMNS

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--alg", "iv", "--neighbors", "2", "--out",
                         str(out)] + QUICK) == 0
        for name in ("records.csv", "summary.csv", "trajectory.csv",
                     "snapshots.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_output_mode_follows_umask(self, tmp_path, umask, mode):
        # Every output gets the mode open(path, "w") would give it.
        previous = os.umask(umask)
        try:
            assert main(["run", "--out", str(tmp_path)] + QUICK) == 0
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode)
                 for p in tmp_path.iterdir()}
        assert modes == {name: mode for name in (
            "records.csv", "summary.csv", "trajectory.csv", "snapshots.json")}

    def test_records_parse_back_losslessly(self, tmp_path):
        assert main(["run", "--alg", "sm", "--neighbors", "4", "--out",
                     str(tmp_path)] + QUICK) == 0
        cfg = load_config(None, {"steps": 25, "seed": 3, "neighbors": 4})
        records, _, _, _ = execute_run(cfg)
        rows = read_csv(tmp_path / "records.csv")[1:]
        assert len(rows) == records.radius.size
        for j, row in enumerate(rows):
            step, node = divmod(j, 8)
            assert int(row[0]) == step
            assert int(row[1]) == node
            assert float(row[5]) == records.radius[step, node]
            assert float(row[6]) == records.center_error[step, node]
            assert float(row[7]) == records.lower[step, node, 0]
            assert float(row[10]) == records.upper[step, node, 1]

    def test_snapshot_cadence(self, tmp_path):
        assert main(["run", "--alg", "sm", "--neighbors", "2", "--out",
                     str(tmp_path)] + QUICK) == 0
        data = json.loads((tmp_path / "snapshots.json").read_text())
        assert [s["step"] for s in data["snapshots"]] == [0, 10, 20]
        assert len(data["snapshots"][0]["nodes"]) == 8

    def test_burn_in_must_leave_steps(self, tmp_path, capsys, monkeypatch):
        # Rejected before any work: the observers never run.
        monkeypatch.setattr("zonodiff.cli.run_simulation", None)
        out = tmp_path / "out"
        assert main(["run", "--steps", "5", "--out", str(out)]) == 1
        assert "burn-in" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["run", "--steps", "0", "--out", str(tmp_path)]) == 1
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1

    def test_bad_flag_exit_code(self):
        assert main(["run", "--alg", "bogus"]) == 1

    def test_custom_topology_file(self, tmp_path):
        topo = {"n": 8, "neighbors": [[i, (i + 1) % 8, (i - 1) % 8]
                                      for i in range(8)]}
        tfile = tmp_path / "topo.json"
        tfile.write_text(json.dumps(topo))
        rc = main(["run", "--topology-file", str(tfile), "--out",
                   str(tmp_path)] + QUICK)
        assert rc == 0
        rows = read_csv(tmp_path / "records.csv")
        assert rows[1][4] == "custom"

    @pytest.mark.parametrize("content", [
        '{"n": 3}', '[[0, 1], [1, 0]]', '{"n": 3, "neighbors": 5}',
        '{"n": 2, "neighbors": [[0, 1], [1, null]]}',
        '{"n": true, "neighbors": [[0]]}',
        '{"n": 2, "neighbors": [[0, true], [1, 0]]}'])
    def test_malformed_topology_file(self, tmp_path, capsys, content):
        tfile = tmp_path / "topo.json"
        tfile.write_text(content)
        assert main(["run", "--topology-file", str(tfile), "--out",
                     str(tmp_path / "out")] + QUICK) == 1
        assert "cannot load topology" in capsys.readouterr().err

    def test_topology_file_sets_node_count(self, tmp_path):
        # A 3-node path: neighborhood sizes 2, 3, 2 in one round.
        tfile = tmp_path / "path.json"
        tfile.write_text(json.dumps({"n": 3,
                                     "neighbors": [[0, 1], [1, 0, 2], [2, 1]]}))
        first = tmp_path / "first"
        for alg in ("sm", "iv"):
            assert main(["run", "--alg", alg, "--topology-file", str(tfile),
                         "--out", str(first)] + QUICK) == 0
            rows = read_csv(first / "records.csv")[1:]
            assert len(rows) == 3 * 25
            assert {r[1] for r in rows} == {"0", "1", "2"}
        assert main(["replay", "--trajectory", str(first / "trajectory.csv"),
                     "--topology-file", str(tfile), "--out",
                     str(tmp_path / "again")] + QUICK) == 0
        # The preset ring has 8 nodes: a 3-node trajectory does not fit it.
        assert main(["replay", "--trajectory", str(first / "trajectory.csv"),
                     "--out", str(tmp_path / "ring")] + QUICK) == 1


class TestCmdGrid:
    def test_grid_summary_matches_individual_runs(self, tmp_path):
        rc = main(["grid", "--out", str(tmp_path)] + GRID_QUICK)
        assert rc == 0
        rows = read_csv(tmp_path / "grid_summary.csv")
        assert rows[0] == SUMMARY_COLUMNS
        body = rows[1:]
        # 12 cells x 4 metric rows.
        assert len(body) == 12 * 4
        assert len(grid_cells()) == 12
        # Composition oracle: each cell equals a standalone run.
        for alg, diff, k in [("sm", True, 2), ("iv", False, 6)]:
            cfg = load_config(None, {
                "algorithm": alg, "diffusion": diff, "neighbors": k,
                "steps": 25, "seed": 3})
            _, _, _, expected = execute_run(cfg)
            diff_label = "on" if diff else "off"
            got = [r for r in body
                   if r[0] == alg and r[1] == diff_label and r[2] == str(k)]
            assert [r[3:] for r in got] == [
                [r[3], str(r[4]), str(r[5])] for r in expected]

    def test_grid_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["grid", "--out", str(out)] + GRID_QUICK) == 0
        assert (a / "grid_summary.csv").read_bytes() == \
               (b / "grid_summary.csv").read_bytes()


    def test_grid_rejects_flags_and_keys_it_does_not_read(self, tmp_path):
        # The grid sets the algorithm, diffusion and ring itself: a
        # topology flag or config-file key is an error, not silently run
        # on the ring.
        out = tmp_path / "out"
        assert main(["grid", "--topology-file", "/nonexistent.json",
                     "--out", str(out)] + GRID_QUICK) == 1
        assert main(["grid", "--alg", "iv", "--out", str(out)]
                    + GRID_QUICK) == 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"topology_file": "/nonexistent.json"}))
        assert main(["grid", "--config", str(path), "--out", str(out)]
                    + GRID_QUICK) == 1
        assert not out.exists()


class TestCmdBench:
    def test_bench_table_shape(self, tmp_path, capsys):
        rc = main(["bench", "--repetitions", "120", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "bench.csv")
        assert rows[0] == ["step", "k2_us", "k4_us", "k6_us"]
        assert [r[0] for r in rows[1:]] == ["measurement", "diffusion",
                                            "time", "luenberger"]
        for row in rows[1:]:
            assert all(float(v) > 0.0 for v in row[1:])

    def test_repetition_floor(self, tmp_path):
        assert main(["bench", "--repetitions", "10", "--out",
                     str(tmp_path)]) == 1


class TestCmdReplay:
    def test_replay_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert main(["run", "--alg", "sm", "--neighbors", "4", "--out",
                     str(first)] + QUICK) == 0
        assert main(["replay", "--trajectory", str(first / "trajectory.csv"),
                     "--alg", "sm", "--neighbors", "4", "--out",
                     str(again)] + QUICK) == 0
        assert (first / "records.csv").read_bytes() == \
               (again / "records.csv").read_bytes()

    def test_replay_missing_file(self, tmp_path):
        assert main(["replay", "--trajectory", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 1

    def test_replay_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["replay", "--trajectory", str(empty),
                     "--out", str(tmp_path)]) == 1
        assert "cannot load trajectory" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [("x1", "nan"), ("x2", "inf"),
                                               ("y0", "nan")])
    def test_non_finite_trajectory_rejected(self, tmp_path, capsys, column,
                                            value):
        # Malformed data is a load error, not a containment violation.
        first = tmp_path / "first"
        assert main(["run", "--steps", "8", "--out", str(first)]) == 0
        rows = read_csv(first / "trajectory.csv")
        rows[3][rows[0].index(column)] = value  # step 2
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "out"
        assert main(["replay", "--trajectory", str(bad), "--out",
                     str(out)]) == 1
        assert "cannot load trajectory" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_burn_in_must_leave_steps(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["run", "--steps", "3", "--burn-in", "0", "--out",
                     str(first)]) == 0
        out = tmp_path / "out"
        assert main(["replay", "--trajectory", str(first / "trajectory.csv"),
                     "--out", str(out)]) == 1
        assert "burn-in" in capsys.readouterr().err
        assert not out.exists()
        assert main(["replay", "--trajectory", str(first / "trajectory.csv"),
                     "--burn-in", "2", "--out", str(out)]) == 0

    def test_containment_violation_exit_code(self, tmp_path):
        # Replaying data generated under wide noise bounds with a config
        # that claims much tighter bounds falsifies the guarantee.
        first = tmp_path / "first"
        assert main(["run", "--alg", "sm", "--neighbors", "4", "--out",
                     str(first)] + QUICK) == 0
        rc = main(["replay", "--trajectory", str(first / "trajectory.csv"),
                   "--alg", "sm", "--neighbors", "4",
                   "--measurement-noise", "0.05", "--process-noise", "0.001",
                   "--out", str(tmp_path / "bad")])
        assert rc == 3


class TestContainmentCheck:
    @pytest.mark.parametrize("alg", ["sm", "iv"])
    @pytest.mark.parametrize("escapes", [
        [(7, 3)],
        [(12, 5), (20, 0), (12, 2)],
        # A point set is tested per set, the others in the stack.
        [(15, 1), (9, 6, "point"), (9, 7)],
    ])
    def test_reports_first_escape_of_per_set_loop(self, alg, escapes,
                                                  monkeypatch):
        # Estimates moved away from the truth after the simulation: the
        # stacked check must name the (step, node) that a loop over steps,
        # then nodes, with contains_point finds first.
        real = cli.run_simulation
        seen = {}

        def escaping(model, topology, obs_cfg, trajectory, **kwargs):
            result = real(model, topology, obs_cfg, trajectory, **kwargs)
            for k, i, *point in escapes:
                z = result.estimates[k][i]
                moved = z.center + 1e3
                result.estimates[k][i] = (Zonotope.point(moved) if point
                                          else Zonotope(moved, z.generators))
            seen.update(estimates=result.estimates, states=trajectory.states)
            return result

        monkeypatch.setattr(cli, "run_simulation", escaping)
        cfg = RunConfig(algorithm=alg, steps=25, seed=3).validate()
        with pytest.raises(ContainmentViolationError) as err:
            execute_run(cfg)
        first = next((k, i) for k, row in enumerate(seen["estimates"])
                     for i, z in enumerate(row)
                     if not contains_point(z, seen["states"][k],
                                           CONTAINMENT_TOL))
        assert first == min((k, i) for k, i, *_ in escapes)
        assert str(err.value) == (f"true state escaped node {first[1]}'s "
                                  f"estimate at step {first[0]}")


class TestTimingFlag:
    def test_timing_flag_records_nonzero(self, tmp_path):
        assert main(["run", "--alg", "sm", "--neighbors", "2", "--timing",
                     "--out", str(tmp_path)] + QUICK) == 0
        rows = read_csv(tmp_path / "records.csv")[1:]
        times = [float(r[11]) for r in rows]
        assert any(t > 0.0 for t in times)

    def test_default_timing_column_zero(self, tmp_path):
        assert main(["run", "--alg", "sm", "--neighbors", "2", "--out",
                     str(tmp_path)] + QUICK) == 0
        rows = read_csv(tmp_path / "records.csv")[1:]
        assert all(float(r[11]) == 0.0 for r in rows)


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main([]) == 1
