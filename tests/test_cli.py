"""Config round-trips, subcommand outputs, table dumps, exit codes."""

import csv
import dataclasses

import numpy as np
import pytest

from roadphases.cli import (
    ConfigError,
    RunConfig,
    main,
    make_policy,
    parse_config,
    parse_density_grid,
    serialize_config,
)
from roadphases.metrics import classify_phases_empirical, read_diagram_csv
from roadphases.topology import build_figure_eight

TABLE1_CFG = """\
[topology]
family = figure_eight
n = 5
m = 5

[run]
mode = continuous
horizon = 5
policy = priority
seeds = 0

[occupancy]
explicit = 0,1,0,1,0,1,0,0,1,0
"""

TABLE1_TSV = """\
0\t0\t0\t0\t0\t0\t0\t0\t0\t0
0\t0\t1\t0\t0\t0\t1\t0\t0\t1
0.5\t0\t1\t0\t0\t0.5\t1\t1\t0\t1
0.5\t0.5\t1\t0\t1\t0.5\t1.5\t1\t1\t1
1\t0.5\t1\t1\t1\t1\t1.5\t1.5\t1\t1
1\t1\t1.5\t1\t1\t1\t2\t1.5\t1\t2
"""

TABLE2_TSV = """\
0\t0\t0\t0\t0\t0\t0\t0\t0\t0
0\t0\t1\t0\t0\t0\t1\t0\t0\t1
1\t0\t1\t0\t0\t0\t1\t1\t0\t1
1\t1\t1\t0\t1\t0\t1\t1\t1\t1
1\t1\t1\t1\t1\t1\t1\t1\t1\t1
1\t1\t2\t1\t1\t1\t2\t1\t1\t2
"""

# Car positions rendered in counting-position order (junction as one
# character): cells 1-4, junction (0/W/S), cells 6-9.
TABLE3_TXT = """\
010101001
0011S0100
101100010
0110W0001
010101001
0011S0100
"""


def run_cli(args, tmp_path):
    return main(["--out", str(tmp_path), *args])


def count_calls(monkeypatch, name):
    """Record the calls the CLI makes to one metrics function."""
    import roadphases.cli as cli_mod
    calls = []
    real = getattr(cli_mod.metrics, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod.metrics, name, counting)
    return calls


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config(TABLE1_CFG)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_full(self):
        cfg = RunConfig(
            topology="family = torus_city\nrows = 2\ncols = 4\n"
                     "segment_len = 3\ncapacity = 1\n",
            mode="continuous", policy="open_loop", horizon=100, burn_in=50,
            seeds=(0, 5), cycle=6, green_first=3, offset=1, q_scale=2.0,
            r_scale=5.0, occupancy_values=(1 / 3, 0.0, 1.0, 0.1),
            occupancy_count=7, occupancy_density=0.3,
            densities="counts(0,10)", eps=0.01, per_road=True,
            r_list=(0.25, 0.75), r_size=40,
            policy_list=("local_feedback", "global_feedback"),
            response_density=0.2, response_horizon=500,
            response_band_fraction=0.2,
            response_policies=("open_loop", "local_feedback"))
        defaults = RunConfig(topology=cfg.topology)
        at_default = [f.name for f in dataclasses.fields(RunConfig)
                      if getattr(cfg, f.name) == getattr(defaults, f.name)]
        assert at_default == ["topology"]
        assert parse_config(serialize_config(cfg)) == cfg

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nmode = discrete\n")  # no topology
        with pytest.raises(ConfigError):
            parse_config(TABLE1_CFG.replace("continuous", "quantum"))
        with pytest.raises(ConfigError):
            parse_config(TABLE1_CFG.replace("priority", "anarchy"))
        with pytest.raises(ConfigError):
            parse_config(TABLE1_CFG.replace("n = 5", "n = five"))

    def test_density_grid_forms(self):
        t = build_figure_eight(5, 5)
        assert parse_density_grid("linspace(0,1,3)", t) == [0.0, 0.5, 1.0]
        assert parse_density_grid("linspace(0, 1, 5)", t) == \
            [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_density_grid("counts(0,2)", t) == [0, 1 / 9, 2 / 9]
        assert parse_density_grid("counts( 0 , 2 )", t) == [0, 1 / 9, 2 / 9]
        assert parse_density_grid("0.1, 0.4", t) == [0.1, 0.4]
        with pytest.raises(ConfigError):
            parse_density_grid("counts(0,99)", t)
        with pytest.raises(ConfigError):
            parse_density_grid("grid-of-doom", t)

    def test_make_policy_names(self):
        cfg = parse_config(TABLE1_CFG)
        t = build_figure_eight(5, 5)
        assert make_policy("priority", cfg, t) is None
        assert make_policy("open_loop", cfg, t).plan.cycle == 4
        assert make_policy("local_feedback", cfg, t) is not None
        pol = make_policy("global_feedback", cfg, t)
        assert pol.solution.gain.shape == (len(t.roads), len(t.roads))
        # an operating density may still be passed; it is ignored
        assert make_policy("global_feedback", cfg, t, 0.3).solution.gain \
            .tolist() == pol.solution.gain.tolist()


class TestSimulateCommand:
    def test_table1_bytes(self, tmp_path):
        cfg_path = tmp_path / "table1.cfg"
        cfg_path.write_text(TABLE1_CFG)
        assert run_cli(["simulate", "--config", str(cfg_path)], tmp_path) == 0
        assert (tmp_path / "counters.tsv").read_text() == TABLE1_TSV
        assert not (tmp_path / "occupancy.txt").exists()

    def test_table2_and_table3_bytes(self, tmp_path):
        cfg_path = tmp_path / "table2.cfg"
        cfg_path.write_text(TABLE1_CFG.replace("continuous", "discrete"))
        assert run_cli(["simulate", "--config", str(cfg_path)], tmp_path) == 0
        assert (tmp_path / "counters.tsv").read_text() == TABLE2_TSV
        assert (tmp_path / "occupancy.txt").read_text() == TABLE3_TXT

    def test_empty_network(self, tmp_path):
        cfg_path = tmp_path / "empty.cfg"
        cfg_path.write_text(TABLE1_CFG.replace(
            "explicit = 0,1,0,1,0,1,0,0,1,0", "count = 0"))
        assert run_cli(["simulate", "--config", str(cfg_path)], tmp_path) == 0
        rows = (tmp_path / "counters.tsv").read_text().splitlines()
        assert all(set(row.split("\t")) == {"0"} for row in rows)

    def test_validation_failure_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TABLE1_CFG.replace(
            "explicit = 0,1,0,1,0,1,0,0,1,0", "count = 99"))
        assert run_cli(["simulate", "--config", str(cfg_path)], tmp_path) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path):
        assert run_cli(["simulate", "--config",
                        str(tmp_path / "nope.cfg")], tmp_path) == 1


DIAGRAM_CFG = """\
[topology]
family = figure_eight
n = 12
m = 6

[run]
mode = discrete
horizon = 400
seeds = 0,1

[diagram]
densities = linspace(0,1,6)
"""


class TestDiagramCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "diag.cfg"
        cfg_path.write_text(DIAGRAM_CFG)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            assert main(["--out", str(out), "diagram",
                         "--config", str(cfg_path)]) == 0
        assert (out1 / "diagram.csv").read_bytes() == \
            (out2 / "diagram.csv").read_bytes()
        assert (out1 / "diagram.dat").read_bytes() == \
            (out2 / "diagram.dat").read_bytes()

    @pytest.mark.parametrize("eps", ["nan", "-0.01", "inf"])
    def test_rejects_eps_before_any_sweep(self, tmp_path, capsys,
                                          monkeypatch, eps):
        sweeps = count_calls(monkeypatch, "sweep_diagram")
        cfg_path = tmp_path / "diag.cfg"
        cfg_path.write_text(DIAGRAM_CFG + f"eps = {eps}\n")
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 1
        assert "eps" in capsys.readouterr().err
        assert not (tmp_path / "diagram.csv").exists()
        assert sweeps == []

    def test_csv_phases_agree_on_reread(self, tmp_path):
        cfg_path = tmp_path / "diag.cfg"
        cfg_path.write_text(DIAGRAM_CFG)
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 0
        diagram = read_diagram_csv(tmp_path / "diagram.csv")
        seg = classify_phases_empirical(diagram)
        with open(tmp_path / "diagram.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["phase"] for row in rows] == [str(l) for l in seg.labels]

    def test_policy_series(self, tmp_path):
        cfg_path = tmp_path / "policies.cfg"
        cfg_path.write_text("""\
[topology]
family = torus_city
rows = 2
cols = 2
segment_len = 2

[run]
mode = discrete
horizon = 200
seeds = 0

[diagram]
densities = 0.1,0.5
policy_list = priority,open_loop,local_feedback,global_feedback
per_road = true
""")
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 0
        text = (tmp_path / "diagram.dat").read_text()
        assert text.count("# series:") == 4
        with open(tmp_path / "diagram_roads.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for name in ("priority", "open_loop", "local_feedback",
                     "global_feedback"):
            assert sum(row["policy"] == name for row in rows) == 2 * 8
        for row in rows:
            for key in ("r", "density", "flow", "road_density", "road_flow"):
                float(row[key])

    def test_single_density_grid(self, tmp_path):
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(DIAGRAM_CFG.replace(
            "densities = linspace(0,1,6)", "densities = 0.0"))
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 0
        lines = (tmp_path / "diagram.csv").read_text().splitlines()
        assert len(lines) == 2
        assert ",0.0," in lines[1]

    def test_strict_flags_nonconverged(self, tmp_path):
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text("""\
[topology]
family = figure_eight
n = 45
m = 15

[run]
mode = discrete
horizon = 60
seeds = 0

[diagram]
densities = 0.7
""")
        assert run_cli(["diagram", "--config", str(cfg_path),
                        "--strict"], tmp_path) == 3
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 0
        import csv
        with open(tmp_path / "diagram.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["converged"] == "0"  # flagged, not dropped

    def test_riccati_failure_exits_two(self, tmp_path, monkeypatch):
        import roadphases.cli as cli_mod
        from roadphases.control import RiccatiError

        def explode(model, **kwargs):
            raise RiccatiError("Riccati iteration did not converge", 1.0, 3)

        monkeypatch.setattr(cli_mod.control, "solve_lqr", explode)
        cfg_path = tmp_path / "glob.cfg"
        cfg_path.write_text(RESPONSE_CFG.replace(
            "policies = open_loop,local_feedback",
            "policies = global_feedback"))
        assert run_cli(["response", "--config", str(cfg_path)],
                       tmp_path) == 2

    def test_r_sweep_series(self, tmp_path):
        cfg_path = tmp_path / "rsweep.cfg"
        cfg_path.write_text("""\
[topology]
family = figure_eight
n = 5
m = 5

[run]
horizon = 300
seeds = 0

[diagram]
densities = 0.2,0.6
r_list = 0.25,0.75
r_size = 24
""")
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 0
        lines = (tmp_path / "diagram.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # two series x two points


class TestEigenCommand:
    def test_curve_csv(self, tmp_path):
        assert run_cli(["eigen", "--n", "45", "--m", "15",
                        "--points", "61"], tmp_path) == 0
        lines = (tmp_path / "eigen.csv").read_text().splitlines()
        assert lines[0].startswith("# n=45 m=15")
        assert "d1=15/59" in lines[1].replace(" ", "")
        assert len(lines) == 3 + 61
        # plateau value 1/4 shows up in the saturation band
        mid = [l for l in lines if l.startswith("0.5,")]
        assert mid and ",0.25," in mid[0]

    def test_multivalued_region_lists_all_candidates(self, tmp_path):
        assert run_cli(["eigen", "--n", "15", "--m", "45",
                        "--points", "41"], tmp_path) == 0
        rows = (tmp_path / "eigen.csv").read_text().splitlines()[3:]
        multi = [r for r in rows if ";" in r.split(",")[2]]
        assert multi, "no density exposed several eigenvalues"

    def test_capacity_two_no_quarter_plateau(self, tmp_path):
        assert run_cli(["eigen", "--n", "45", "--m", "15", "--capacity",
                        "2", "--points", "41"], tmp_path) == 0
        rows = (tmp_path / "eigen.csv").read_text().splitlines()[3:]
        selected = [float(r.split(",")[3]) for r in rows]
        assert max(selected) > 0.4  # tent peak approaches 1/2


class TestPhasesCommand:
    def test_segments_from_csv(self, tmp_path):
        cfg_path = tmp_path / "diag.cfg"
        cfg_path.write_text(DIAGRAM_CFG)
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 0
        assert run_cli(["phases", "--input",
                        str(tmp_path / "diagram.csv")], tmp_path) == 0
        lines = (tmp_path / "phases.csv").read_text().splitlines()
        assert lines[0] == "d_lo,d_hi,phase"
        assert len(lines) >= 2

    @pytest.mark.parametrize("eps", ["nan", "-0.01", "inf"])
    def test_rejects_eps_that_cannot_be_met(self, tmp_path, capsys, eps):
        csv_path = tmp_path / "diagram.csv"
        csv_path.write_text("topology_id,policy,r,density,flow,phase,"
                            "converged,seed_count\n"
                            "t,priority,0.5,0.5,0.25,saturation,1,1\n")
        assert run_cli(["phases", "--input", str(csv_path), "--eps", eps],
                       tmp_path) == 1
        assert "eps" in capsys.readouterr().err
        assert not (tmp_path / "phases.csv").exists()


RESPONSE_CFG = """\
[topology]
family = torus_city
rows = 2
cols = 2
segment_len = 2

[run]
mode = discrete
seeds = 0

[response]
density = 0.25
horizon = 200
policies = open_loop,local_feedback
"""


class TestResponseCommand:
    def test_traces_and_summary(self, tmp_path):
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG)
        assert run_cli(["response", "--config", str(cfg_path)], tmp_path) == 0
        summary = (tmp_path / "response_summary.csv").read_text().splitlines()
        assert summary[0] == "policy,seed,response_time,settled,plateau"
        assert len(summary) == 3
        trace = (tmp_path / "response_open_loop_seed0.csv").read_text()
        assert trace.splitlines()[0] == "step,distance"
        assert len(trace.splitlines()) == 202

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_rejects_empty_horizon(self, tmp_path, capsys, horizon):
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG.replace(
            "horizon = 200", f"horizon = {horizon}"))
        assert run_cli(["response", "--config", str(cfg_path)], tmp_path) == 1
        assert "horizon" in capsys.readouterr().err
        assert not (tmp_path / "response_summary.csv").exists()

    @pytest.mark.parametrize("fraction", ["-0.5", "nan", "inf"])
    def test_rejects_band_that_cannot_be_met(self, tmp_path, capsys,
                                             monkeypatch, fraction):
        runs = count_calls(monkeypatch, "run_response_trace")
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG.replace(
            "horizon = 200", f"horizon = 200\nband_fraction = {fraction}"))
        assert run_cli(["response", "--config", str(cfg_path)], tmp_path) == 1
        assert "band" in capsys.readouterr().err
        assert not (tmp_path / "response_summary.csv").exists()
        assert runs == []  # rejected before any policy is run


GLOBAL_CFG = """\
[topology]
family = torus_city
rows = 2
cols = 2
segment_len = 2

[run]
mode = discrete
policy = global_feedback
horizon = 100
seeds = 0,1,2

[policy]
cycle = 4

[diagram]
densities = 0.1,0.3,0.5

[response]
density = 0.25
horizon = 50
policies = global_feedback
"""


class TestGlobalFeedbackCommands:
    @pytest.mark.parametrize("cycle", [0, 1])
    @pytest.mark.parametrize("command", ["diagram", "response"])
    def test_short_cycle_exits_one(self, tmp_path, capsys, command, cycle):
        cfg_path = tmp_path / "glob.cfg"
        cfg_path.write_text(GLOBAL_CFG.replace("cycle = 4",
                                               f"cycle = {cycle}"))
        assert run_cli([command, "--config", str(cfg_path)], tmp_path) == 1
        assert "cycle" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["diagram", "response"])
    def test_indefinite_state_weight_exits_one(self, tmp_path, capsys,
                                               command):
        cfg_path = tmp_path / "glob.cfg"
        cfg_path.write_text(GLOBAL_CFG.replace("cycle = 4",
                                               "cycle = 4\nq_scale = -1"))
        assert run_cli([command, "--config", str(cfg_path)], tmp_path) == 1
        assert "Q must be positive semidefinite" in capsys.readouterr().err

    def test_one_solve_per_series_and_response_policy(self, tmp_path,
                                                      monkeypatch):
        import roadphases.cli as cli_mod
        solved = []
        real_solve = cli_mod.control.solve_lqr

        def counting_solve(model, **kwargs):
            solved.append(model)
            return real_solve(model, **kwargs)

        monkeypatch.setattr(cli_mod.control, "solve_lqr", counting_solve)
        cfg_path = tmp_path / "glob.cfg"
        cfg_path.write_text(GLOBAL_CFG.replace(
            "densities = 0.1,0.3,0.5", "densities = 0.1,0.3,0.5\n"
            "policy_list = local_feedback,global_feedback"))
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 0
        assert len(solved) == 1
        assert run_cli(["response", "--config", str(cfg_path)], tmp_path) == 0
        assert len(solved) == 2


class TestEmptySeeds:
    CONFIGS = {"simulate": TABLE1_CFG, "diagram": DIAGRAM_CFG,
               "response": RESPONSE_CFG}

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command", ["simulate", "diagram", "response"])
    def test_exits_one_naming_seeds(self, tmp_path, capsys, command, how):
        cfg_text = self.CONFIGS[command]
        cfg_path = tmp_path / "cfg.ini"
        extra = []
        if how == "flag":
            extra = ["--seeds", "0"]
        else:
            cfg_text = cfg_text.replace("seeds = 0,1", "seeds =") \
                .replace("seeds = 0", "seeds =")
        cfg_path.write_text(cfg_text)
        out = tmp_path / "out"
        assert main(["--out", str(out), command, "--config", str(cfg_path),
                     *extra]) == 1
        assert "seeds" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestFileErrors:
    def test_missing_phases_input(self, tmp_path, capsys):
        assert run_cli(["phases", "--input", str(tmp_path / "missing.csv")],
                       tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_csv_without_diagram_columns(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("density,flow\n0.1,0.1\n")
        assert run_cli(["phases", "--input", str(path)], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "topology_id" in err and "seed_count" in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert run_cli(["simulate", "--config", str(tmp_path)],
                       tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["--out", str(out), "eigen", "--n", "5",
                     "--m", "5"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
