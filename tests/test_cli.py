"""Config parsing, subcommand outputs, table dumps, exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import re
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadphases.cli import (
    _POLICIES,
    _SCHEMA,
    ConfigError,
    RunConfig,
    main,
    make_policy,
    parse_config,
    parse_density_grid,
    read_diagram_csv,
)
from roadphases.dynamics import CONTINUOUS, init_occupancy, simulate
from roadphases.metrics import _policy_id, classify_phases_empirical
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


FIG8_CONTINUOUS_CFG = """\
[topology]
family = figure_eight
n = 45
m = 15

[run]
mode = continuous
horizon = 1475
seeds = 0

[occupancy]
count = 45
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


def run_in_empty_dir(args, tmp_path):
    """Exit code of the CLI run with --out a fresh directory, and the names
    of the files it wrote there."""
    out = tmp_path / "out"
    code = main(["--out", str(out), *args])
    return code, sorted(p.name for p in out.iterdir())


class TestConfig:
    def test_every_key_is_read(self):
        cfg = parse_config("""\
[topology]
family = torus_city
rows = 2
cols = 4
segment_len = 3
capacity = 1

[run]
mode = continuous
policy = open_loop
horizon = 100
burn_in = 50
seeds = 0, 5

[policy]
cycle = 6
green_first = 3
offset = 1
q_scale = 2.0
r_scale = 5.0

[occupancy]
explicit = 0.3333333333333333, 0, 1, 0.1
count = 7
density = 0.3

[diagram]
densities = counts(0,10)
eps = 0.01
per_road = true
r_list = 0.25, 0.75
r_size = 40
policy_list = local_feedback, global_feedback

[response]
density = 0.2
horizon = 500
band_fraction = 0.2
policies = open_loop, local_feedback
""")
        assert cfg == RunConfig(
            topology=(("family", "torus_city"), ("rows", "2"), ("cols", "4"),
                      ("segment_len", "3"), ("capacity", "1")),
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

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nmode = discrete\n")  # no topology
        with pytest.raises(ConfigError):
            parse_config(TABLE1_CFG.replace("continuous", "quantum"))
        with pytest.raises(ConfigError):
            parse_config(TABLE1_CFG.replace("priority", "anarchy"))
        with pytest.raises(ConfigError):
            parse_config(TABLE1_CFG.replace("n = 5", "n = five"))
        with pytest.raises(ConfigError, match=r"^bad value for \[diagram\] "
                                              r"per_road: 'maybe'$"):
            parse_config(TABLE1_CFG + "[diagram]\nper_road = maybe\n")

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("yes", True), ("True", True), ("ON", True),
        ("0", False), ("no", False), ("False", False), ("OFF", False)])
    def test_per_road_reads_the_boolean_words(self, word, value):
        cfg = parse_config(TABLE1_CFG + f"[diagram]\nper_road = {word}\n")
        assert cfg.per_road is value

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
        assert make_policy("open_loop", cfg, t).cycle == 4
        assert make_policy("local_feedback", cfg, t) is not None
        pol = make_policy("global_feedback", cfg, t)
        assert pol.solution.gain.shape == (len(t.roads), len(t.roads))
        # an operating density may still be passed; it is ignored
        assert make_policy("global_feedback", cfg, t, 0.3).solution.gain \
            .tolist() == pol.solution.gain.tolist()

    @pytest.mark.parametrize("name", list(_POLICIES))
    def test_every_policy_name_builds_under_its_own_id(self, name):
        policy = make_policy(name, parse_config(TABLE1_CFG),
                             build_figure_eight(5, 5))
        assert _policy_id(policy) == name

    @pytest.mark.parametrize("command,text,named", [
        ("simulate", TABLE1_CFG.replace("continuous", "quantum"),
         "[run] mode: 'quantum'"),
        ("simulate", TABLE1_CFG.replace("priority", "anarchy"),
         "[run] policy: 'anarchy'"),
        ("diagram", TABLE1_CFG.replace("continuous", "discrete")
         + "\n[diagram]\npolicy_list = local_feedback, anarchy\n",
         "[diagram] policy_list: 'local_feedback, anarchy'"),
        ("response", TABLE1_CFG.replace("continuous", "discrete")
         + "\n[response]\npolicies = open_loop, Priority\n",
         "[response] policies: 'open_loop, Priority'"),
        ("simulate", TABLE1_CFG.replace("seeds = 0", "seeds = -1"),
         "[run] seeds: '-1'"),
        # a repeated entry would count one run twice in a diagram median,
        # or overwrite a response trace file with another
        ("response", TABLE1_CFG.replace("continuous", "discrete")
         .replace("seeds = 0", "seeds = 1,1")
         + "\n[response]\npolicies = open_loop, open_loop\n",
         "[run] seeds: '1,1'"),
        ("diagram", TABLE1_CFG.replace("continuous", "discrete")
         .replace("seeds = 0", "seeds = 1, 01"), "[run] seeds: '1, 01'"),
        ("response", TABLE1_CFG.replace("continuous", "discrete")
         + "\n[response]\npolicies = open_loop,local_feedback,open_loop\n",
         "[response] policies: 'open_loop,local_feedback,open_loop'"),
        ("diagram", TABLE1_CFG.replace("continuous", "discrete")
         + "\n[diagram]\npolicy_list = priority, open_loop, priority\n",
         "[diagram] policy_list: 'priority, open_loop, priority'"),
        ("diagram", TABLE1_CFG.replace("continuous", "discrete")
         + "\n[diagram]\nr_list = 0.5, 0.25, 0.50\n",
         "[diagram] r_list: '0.5, 0.25, 0.50'"),
        # each value is checked as it is read, by every command, used or not
        ("simulate", TABLE1_CFG + "\n[diagram]\neps = -1\n",
         "[diagram] eps: '-1'"),
        ("response", TABLE1_CFG.replace("continuous", "discrete")
         + "\n[diagram]\nr_size = 2\n", "[diagram] r_size: '2'"),
        ("simulate", TABLE1_CFG + "\n[response]\nhorizon = 0\n",
         "[response] horizon: '0'"),
        ("diagram", TABLE1_CFG + "\n[response]\nband_fraction = inf\n",
         "[response] band_fraction: 'inf'"),
    ], ids=["mode", "policy", "policy_list", "response_policies", "seeds",
            "repeated_seeds_and_policies", "repeated_seeds",
            "repeated_response_policies", "repeated_policy_list",
            "repeated_r_list", "eps_under_simulate", "r_size_under_response",
            "response_horizon_under_simulate", "band_under_diagram"])
    def test_bad_name_exits_one_naming_its_key(self, tmp_path, capsys,
                                               command, text, named):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        assert run_in_empty_dir([command, "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == f"error: bad value for {named}\n"

    def test_topology_values_follow_the_comment_rule(self, tmp_path,
                                                     capsys):
        # as in every other section, only a prefix after whitespace starts
        # an inline comment
        for note in (" ; note", " # note"):
            cfg = parse_config(TABLE1_CFG.replace("n = 5", f"n = 5{note}"))
            assert dict(cfg.topology)["n"] == "5"
            assert cfg.build_topology().params["n"] == 5
        cfg_path = tmp_path / "hash.cfg"
        cfg_path.write_text(TABLE1_CFG.replace("n = 5", "n = 5#x"))
        assert run_in_empty_dir(["simulate", "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err.startswith(
            "error: bad [topology] section: ")

    @pytest.mark.parametrize("command,text,error", [
        ("simulate", "[topology\nfamily = figure_eight\n",
         "error: bad config syntax: File contains no section headers."),
        ("simulate", TABLE1_CFG.replace("seeds = 0", "seeds = 0\nseeds = 1"),
         "error: bad config syntax: While reading from '<string>' [line 11]: "
         "option 'seeds' in section 'run' already exists\n"),
        ("simulate", TABLE1_CFG + "count = 4\n",
         "error: [occupancy] needs exactly one of explicit / count / "
         "density\n"),
        ("simulate", TABLE1_CFG.replace("explicit = 0,1,0,1,0,1,0,0,1,0", ""),
         "error: [occupancy] needs exactly one of explicit / count / "
         "density\n"),
        ("diagram", TABLE1_CFG + "\n[diagram]\ndensities = linspace(0,1,0)\n",
         "error: linspace needs at least one point\n"),
        # sizes above the 128 TiB of a 47-bit address space, refused at once
        # under any overcommit setting (10**8-10**11 could really allocate)
        ("diagram", TABLE1_CFG
         + "\n[diagram]\ndensities = linspace(0,1,1000000000000000)\n",
         "error: Unable to allocate 7.11 PiB for an array with shape "
         "(1000000000000000,) and data type float64\n"),
        ("diagram", TABLE1_CFG
         + "\n[diagram]\nr_list = 0.5\nr_size = 10000000000000\n",
         "error: Unable to allocate 1.42 PiB for an array with shape "
         "(20, 10000000000001) and data type int64\n"),
    ], ids=["no_section_header", "repeated_key", "two_occupancy_keys",
            "no_occupancy_key", "empty_linspace", "refused_grid",
            "refused_r_size"])
    def test_config_no_run_can_use_exits_one(self, tmp_path, capsys,
                                             command, text, error):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        assert run_in_empty_dir([command, "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err.startswith(error)

    def test_percent_sign_is_read_literally(self, tmp_path, capsys):
        cfg_path = tmp_path / "percent.cfg"
        cfg_path.write_text(TABLE1_CFG + "\n[diagram]\ndensities = 5%\n")
        assert run_in_empty_dir(["diagram", "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == "error: bad density grid: '5%'\n"


class TestUnknownKeys:
    """Every key outside RunConfig's schema is rejected before any run."""

    @pytest.mark.parametrize("text,named", [
        (TABLE1_CFG.replace("seeds = 0", "seeds = 0\ncycle = 1"),
         "[run] cycle"),
        (TABLE1_CFG.replace("horizon = 5", "horizn = 5"), "[run] horizn"),
        (TABLE1_CFG + "\n[bogus]\nhorizon = 7\n", "[bogus]"),
        (TABLE1_CFG + "\n[bogus]\n", "[bogus]"),
        (TABLE1_CFG + "\n[DEFAULT]\nseeds = 0\n", "[DEFAULT]"),
    ], ids=["key_of_another_section", "misspelt_key", "unknown_section",
            "empty_unknown_section", "default_section"])
    def test_exits_one_naming_the_offender(self, tmp_path, capsys, text,
                                           named):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        assert run_in_empty_dir(["simulate", "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == \
            f"error: unknown config keys: {named}\n"

    def test_names_every_offender_at_once(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TABLE1_CFG.replace(
            "horizon = 5", "cycle = 1\nhorizn = 7") + "\n[bogus]\nn = 1\n")
        assert run_in_empty_dir(["simulate", "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == ("error: unknown config keys: "
                                           "[run] cycle, [run] horizn, "
                                           "[bogus]\n")

    def test_key_in_its_own_section_is_checked(self, tmp_path, capsys):
        cfg_path = tmp_path / "cycle.cfg"
        cfg_path.write_text(TABLE1_CFG.replace("policy = priority",
                                               "policy = open_loop")
                            + "\n[policy]\ncycle = 1\n")
        assert run_in_empty_dir(["simulate", "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == \
            "error: bad value for [policy] cycle: '1'\n"

    def test_keys_of_other_commands_are_accepted(self, tmp_path):
        cfg_path = tmp_path / "all.cfg"
        cfg_path.write_text(TABLE1_CFG + "\n[diagram]\neps = 0.1\n"
                            "\n[response]\ndensity = 0.5\n")
        assert run_in_empty_dir(["simulate", "--config", str(cfg_path)],
                                tmp_path) == (0, ["counters.tsv"])

    def test_every_benchmark_config_parses(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / \
            "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        assert {"fig8_sweep", "city_policies"} <= set(workloads.WORKLOADS)
        for w in workloads.WORKLOADS.values():
            for seed in range(3):
                assert parse_config(w.config_text(seed)).seeds == \
                    w.seeds(seed)


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

    @pytest.mark.parametrize("flag,text,key", [
        (["--mode", "discrete"], TABLE1_CFG, ("continuous", "discrete")),
        # open-loop counters first part from the priority rule's at step 7
        (["--policy", "open_loop"],
         TABLE1_CFG.replace("horizon = 5", "horizon = 10"),
         ("priority", "open_loop")),
    ], ids=["mode", "policy"])
    def test_flag_overrides_its_config_key(self, tmp_path, flag, text, key):
        # the flag writes what the config edited to its value writes, and
        # not what the config alone writes
        cfg_path, edited = tmp_path / "table1.cfg", tmp_path / "edited.cfg"
        cfg_path.write_text(text)
        edited.write_text(text.replace(*key))
        written = {}
        for name, args in {"config": [cfg_path], "flag": [cfg_path, *flag],
                           "edited": [edited]}.items():
            out = tmp_path / name
            assert main(["--out", str(out), "simulate", "--config",
                         *map(str, args)]) == 0
            written[name] = {p.name: p.read_text() for p in out.iterdir()}
        assert written["flag"] == written["edited"] != written["config"]
        if flag[0] == "--mode":
            assert written["flag"] == {"counters.tsv": TABLE2_TSV,
                                       "occupancy.txt": TABLE3_TXT}

    def test_continuous_dump_reads_back_exactly(self, tmp_path):
        # the fig8_sweep network: its counters soon need more than the six
        # significant digits of format "g" (10.34375 at step 30)
        cfg_path = tmp_path / "fig8.cfg"
        cfg_path.write_text(FIG8_CONTINUOUS_CFG)
        assert run_cli(["simulate", "--config", str(cfg_path)], tmp_path) == 0
        t = build_figure_eight(45, 15)
        states = simulate(t, init_occupancy(t, count=45, seed=0), CONTINUOUS,
                          horizon=1475)
        rows = (tmp_path / "counters.tsv").read_text().splitlines()
        assert [[float(v) for v in row.split("\t")] for row in rows] == \
            states.tolist()

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

    def test_memory_is_flat_in_the_horizon(self, tmp_path):
        # each state is written as it is reached: 2,000 discrete steps on
        # Fig-8 45/15 peaked at 4.9 MB when the trajectory was kept whole
        cfg_path = tmp_path / "fig8.cfg"
        peaks = {}
        for horizon in (1, 200, 2000):  # the first run warms up
            cfg_path.write_text(FIG8_CONTINUOUS_CFG.replace(
                "continuous", "discrete").replace("1475", str(horizon)))
            tracemalloc.start()
            try:
                assert run_cli(["simulate", "--config", str(cfg_path)],
                               tmp_path) == 0
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len((tmp_path / "occupancy.txt").read_text().splitlines()) \
            == 2001
        assert peaks[2000] < 2 * peaks[200]
        assert peaks[2000] < 1e6

    @pytest.mark.parametrize("command", ["simulate", "diagram"])
    def test_zero_horizon_exits_one(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text(TABLE1_CFG.replace("horizon = 5", "horizon = 0"))
        assert run_in_empty_dir([command, "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == {
            "simulate": "error: bad value for [run] horizon: '0'\n",
            "diagram": "error: bad value for [run] horizon: '0'\n"}[command]


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
        sweeps = count_calls(monkeypatch, "sweep_diagrams")
        cfg_path = tmp_path / "diag.cfg"
        cfg_path.write_text(DIAGRAM_CFG + f"eps = {eps}\n")
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 1
        assert capsys.readouterr().err == \
            f"error: bad value for [diagram] eps: {eps!r}\n"
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

    def test_policy_list_writes_each_series_as_alone(self, tmp_path):
        # the README's list: the priority series steps a stack of its own,
        # the three light policies share one; the rows are those of four
        # one-series runs, in the list's order
        base = """\
[topology]
family = torus_city
rows = 3
cols = 2
segment_len = 3

[run]
mode = discrete
horizon = 150
seeds = 0,1,2

[diagram]
densities = 0.1,0.35,0.6,0.85
per_road = true
"""
        names = ["priority", "open_loop", "local_feedback", "global_feedback"]
        cfg_path = tmp_path / "all.cfg"
        cfg_path.write_text(base + f"policy_list = {','.join(names)}\n")
        assert main(["--out", str(tmp_path / "all"), "diagram",
                     "--config", str(cfg_path)]) == 0
        for name in names:
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(base.replace(
                "[diagram]", f"policy = {name}\n\n[diagram]"))
            assert main(["--out", str(tmp_path / name), "diagram",
                         "--config", str(cfg_path)]) == 0
        for file in ("diagram.csv", "diagram_roads.csv"):
            parts = [(tmp_path / name / file).read_bytes().splitlines(True)
                     for name in names]
            assert (tmp_path / "all" / file).read_bytes() == b"".join(
                parts[0][:1] + [line for part in parts for line in part[1:]])

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
            raise RiccatiError("uncontrollable mode", float("inf"))

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

    @pytest.mark.parametrize("r_list,r_size,message", [
        # a clamped network would carry another r, or another density grid,
        # than its series label says
        ("0.01", 60, r"r = 0.01 with r_size = 60: round\(r \* r_size\) = 1"),
        ("0.999", 60, r"r = 0.999 with r_size = 60: .* = 60 lies outside "
                      r"\[2, 59\]"),
        # below 3 no ratio builds, and the parser names the key
        ("0.25,0.75", 0, r"^error: bad value for \[diagram\] r_size: '0'$"),
        ("0.25,0.75", 1, r"^error: bad value for \[diagram\] r_size: '1'$"),
        ("0.5", 2, r"^error: bad value for \[diagram\] r_size: '2'$"),
        ("0.25", 3, r"r = 0.25 with r_size = 3: .* = 1 lies outside \[2, 2\]"),
        ("1.5", 60, r"^error: bad value for \[diagram\] r_list: '1.5'$"),
        # a series is either a ratio or a policy, never both
        ("0.25\npolicy_list = priority, open_loop", 60,
         r"^error: choose one of r_list / policy_list, not both$"),
    ], ids=["n_below_2", "m_below_2", "r_size_zero", "r_size_too_small",
            "r_size_two", "r_size_three", "r_above_1", "with_policy_list"])
    def test_r_list_rejects_a_ratio_it_cannot_build(
            self, tmp_path, capsys, r_list, r_size, message):
        cfg_path = tmp_path / "rsweep.cfg"
        cfg_path.write_text(f"""\
[topology]
family = figure_eight
n = 5
m = 5

[diagram]
densities = 0.1,0.2
r_list = {r_list}
r_size = {r_size}
""")
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 1
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "diagram.csv").exists()


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

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_rejects_fewer_than_two_points(self, tmp_path, capsys, points):
        assert run_in_empty_dir(["eigen", "--n", "5", "--m", "5",
                                 "--points", points], tmp_path) == (1, [])
        assert capsys.readouterr().err == \
            "error: need at least 2 grid points\n"

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

    def test_rejects_several_series(self, tmp_path, capsys):
        cfg_path = tmp_path / "two.cfg"
        cfg_path.write_text(GLOBAL_CFG.replace(
            "densities = 0.1,0.3,0.5",
            "densities = 0.1,0.3\npolicy_list = priority,local_feedback"))
        assert run_cli(["diagram", "--config", str(cfg_path)], tmp_path) == 0
        assert run_cli(["phases", "--input", str(tmp_path / "diagram.csv")],
                       tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2 diagram series" in err
        assert not (tmp_path / "phases.csv").exists()

    @pytest.mark.parametrize("tail", ["", "\n"], ids=["header", "blank_line"])
    def test_rejects_a_csv_without_rows(self, tmp_path, capsys, tail):
        csv_path = tmp_path / "diagram.csv"
        csv_path.write_text("topology_id,policy,r,density,flow,phase,"
                            f"converged,seed_count\n{tail}")
        assert run_cli(["phases", "--input", str(csv_path)], tmp_path) == 1
        assert capsys.readouterr().err == \
            f"error: empty diagram CSV: {csv_path}\n"
        assert not (tmp_path / "phases.csv").exists()

    @pytest.mark.parametrize("point", ["nan,0.7", "0.0,inf", "0.2,-inf"])
    def test_rejects_non_finite_points(self, tmp_path, capsys, point):
        csv_path = tmp_path / "diagram.csv"
        csv_path.write_text("topology_id,policy,r,density,flow,phase,"
                            "converged,seed_count\n"
                            "t,priority,0.5,0.5,0.25,saturation,1,1\n"
                            f"t,priority,0.5,{point},free,1,1\n")
        assert run_cli(["phases", "--input", str(csv_path)], tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path} line 3: ")
        assert "must be finite" in err and point.replace(",", ", ") in err
        assert not (tmp_path / "phases.csv").exists()

    @pytest.mark.parametrize("row, fault", [
        ("t,priority,0.5,abc,0.25,free,1,1",
         "could not convert string to float: 'abc'"),
        ("t,priority,0.5,0.5,0.25,free,yes,1",
         "invalid literal for int() with base 10: 'yes'"),
        ("t,priority,0.5,0.5,0.25,free,1", "no value for seed_count"),
        ("t,priority", "no value for r, density, flow, converged, "
                       "seed_count")],
        ids=["bad_float", "bad_int", "short", "two_fields"])
    def test_rejects_unreadable_rows(self, tmp_path, capsys, row, fault):
        csv_path = tmp_path / "diagram.csv"
        csv_path.write_text("topology_id,policy,r,density,flow,phase,"
                            f"converged,seed_count\n{row}\n")
        assert run_cli(["phases", "--input", str(csv_path)], tmp_path) == 1
        assert capsys.readouterr().err == \
            f"error: {csv_path} line 2: {fault}\n"
        assert not (tmp_path / "phases.csv").exists()

    @pytest.mark.parametrize("line", [1, 3])
    def test_rejects_a_field_above_the_csv_limit(self, tmp_path, capsys,
                                                 line):
        # csv.Error, not a ValueError: it used to escape main
        lines = ["topology_id,policy,r,density,flow,phase,converged,"
                 "seed_count", "t,priority,0.5,0.5,0.25,free,1,1"] * 2
        lines[line - 1] += "x" * 140_000
        csv_path = tmp_path / "diagram.csv"
        csv_path.write_text("\n".join(lines[:3]) + "\n")
        assert run_cli(["phases", "--input", str(csv_path)], tmp_path) == 1
        assert capsys.readouterr().err == (
            f"error: {csv_path} line {line}: field larger than field limit "
            f"({csv.field_size_limit()})\n")
        assert not (tmp_path / "phases.csv").exists()

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

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_rejects_continuous_mode(self, tmp_path, capsys, monkeypatch,
                                     how):
        runs = count_calls(monkeypatch, "run_response_traces")
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG if how == "flag" else
                            RESPONSE_CFG.replace("discrete", "continuous"))
        flag = ["--mode", "continuous"] if how == "flag" else []
        assert run_in_empty_dir(["response", "--config", str(cfg_path),
                                 *flag], tmp_path) == (1, [])
        assert capsys.readouterr().err == \
            "error: response scenarios run in discrete mode\n"
        assert runs == []

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_rejects_empty_horizon(self, tmp_path, capsys, horizon):
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG.replace(
            "horizon = 200", f"horizon = {horizon}"))
        assert run_cli(["response", "--config", str(cfg_path)], tmp_path) == 1
        assert capsys.readouterr().err == \
            f"error: bad value for [response] horizon: '{horizon}'\n"
        assert not (tmp_path / "response_summary.csv").exists()

    @pytest.mark.parametrize("fraction", ["-0.5", "nan", "inf"])
    def test_rejects_band_that_cannot_be_met(self, tmp_path, capsys,
                                             monkeypatch, fraction):
        runs = count_calls(monkeypatch, "run_response_trace")
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG.replace(
            "horizon = 200", f"horizon = 200\nband_fraction = {fraction}"))
        assert run_cli(["response", "--config", str(cfg_path)], tmp_path) == 1
        assert capsys.readouterr().err == \
            f"error: bad value for [response] band_fraction: {fraction!r}\n"
        assert not (tmp_path / "response_summary.csv").exists()
        assert runs == []  # rejected before any policy is run

    def test_rejects_empty_policy_list(self, tmp_path, capsys, monkeypatch):
        runs = count_calls(monkeypatch, "run_response_trace")
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG.replace(
            "policies = open_loop,local_feedback", "policies ="))
        assert run_in_empty_dir(["response", "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == ("error: [response] policies must "
                                           "name at least one policy\n")
        assert runs == []  # rejected before any policy is run

    @pytest.mark.parametrize("density", ["nan", "-0.5", "1.5"])
    def test_rejects_density_outside_unit_interval(self, tmp_path, capsys,
                                                   monkeypatch, density):
        runs = count_calls(monkeypatch, "run_response_trace")
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG.replace(
            "density = 0.25", f"density = {density}"))
        assert run_in_empty_dir(["response", "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == ("error: bad value for [response] "
                                           f"density: {density!r}\n")
        assert runs == []  # rejected before any policy is run

    def test_rejects_density_beyond_the_road_cells(self, tmp_path, capsys,
                                                   monkeypatch):
        # a clustered start packs one car per road cell; this city has 24
        # road cells and 28 counting positions, and 0.95 asks for 27 cars
        runs = count_calls(monkeypatch, "run_response_trace")
        cfg_path = tmp_path / "resp.cfg"
        cfg_path.write_text(RESPONSE_CFG.replace(
            "segment_len = 2", "segment_len = 3").replace(
            "density = 0.25", "density = 0.95"))
        assert run_in_empty_dir(["response", "--config", str(cfg_path)],
                                tmp_path) == (1, [])
        assert capsys.readouterr().err == ("error: [response] density 0.95 "
                                           "needs 27 road cells (has 24)\n")
        assert runs == []


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
        assert capsys.readouterr().err == \
            "error: bad value for [policy] q_scale: '-1'\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["q_scale", "r_scale"])
    def test_non_finite_weight_exits_one(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "glob.cfg"
        cfg_path.write_text(GLOBAL_CFG.replace(
            "cycle = 4", f"cycle = 4\n{key} = {value}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no warning on the way
            assert run_cli(["diagram", "--config", str(cfg_path)],
                           tmp_path) == 1
        assert capsys.readouterr().err == \
            f"error: bad value for [policy] {key}: {value!r}\n"

    @pytest.mark.parametrize("weights", ["q_scale = 1e308", "q_scale = 1e200",
                                         "r_scale = 1e-300",
                                         "q_scale = 1e308\nr_scale = 1e-300"])
    def test_extreme_weight_solves_or_exits_two(self, tmp_path, capsys,
                                                weights):
        # q_scale / r_scale past 1e154 once overflowed s * s in the solve;
        # only the pair leaves float64 (s = Q g overflows)
        cfg_path = tmp_path / "glob.cfg"
        cfg_path.write_text(GLOBAL_CFG.replace("cycle = 4",
                                               f"cycle = 4\n{weights}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no warning on the way
            code, written = run_in_empty_dir(
                ["diagram", "--config", str(cfg_path)], tmp_path)
        err = capsys.readouterr().err
        if weights == "q_scale = 1e308\nr_scale = 1e-300":
            assert (code, written) == (2, [])
            assert err.startswith("numerical failure: Riccati ")
            assert err.count("\n") == 1 and "overflow" in err
            assert "nan" not in err
        else:
            assert (code, written) == (0, ["diagram.csv", "diagram.dat"])
            assert "numerical failure" not in err

    def test_deadbeat_weight_on_two_road_network(self, tmp_path):
        # at Q / R = 1e29 the gain is B's pseudo-inverse, with no solve to
        # turn singular on the figure eight's rank-1 B
        cfg_path = tmp_path / "fig8.cfg"
        cfg_path.write_text(GLOBAL_CFG.replace(
            "family = torus_city\nrows = 2\ncols = 2\nsegment_len = 2",
            "family = figure_eight\nn = 2\nm = 2").replace(
            "cycle = 4", "cycle = 4\nq_scale = 1e30"))
        assert run_in_empty_dir(["diagram", "--config", str(cfg_path)],
                                tmp_path) == (0, ["diagram.csv",
                                                  "diagram.dat"])

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

    @pytest.mark.parametrize("command", ["diagram", "response"])
    def test_one_network_build_per_command(self, tmp_path, monkeypatch,
                                           command):
        from roadphases.topology import NetworkTopology
        built = []
        real_validate = NetworkTopology.validate

        def counting_validate(t):
            built.append(t)
            return real_validate(t)

        monkeypatch.setattr(NetworkTopology, "validate", counting_validate)
        cfg_path = tmp_path / "glob.cfg"
        cfg_path.write_text(GLOBAL_CFG)
        assert run_cli([command, "--config", str(cfg_path)], tmp_path) == 0
        assert len(built) == 1


class TestCycleRange:
    """[policy] cycle lies in [2, 2**53]: under both light policies a long
    open-loop cycle allocates nothing per phase, and a cycle whose slots
    float64 cannot count exits 1 naming its key, with no warning on the
    way."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cycle", [10 ** 12, 2 ** 53, 2 ** 53 + 1,
                                       10 ** 26])
    @pytest.mark.parametrize("policy", ["open_loop", "global_feedback"])
    def test_cycle_range(self, tmp_path, capsys, policy, cycle):
        cfg_path = tmp_path / "cycle.cfg"
        cfg_path.write_text(GLOBAL_CFG.replace(
            "policy = global_feedback", f"policy = {policy}").replace(
            "cycle = 4", f"cycle = {cycle}"))
        code, written = run_in_empty_dir(
            ["diagram", "--config", str(cfg_path)], tmp_path)
        err = capsys.readouterr().err
        if cycle <= 2 ** 53:
            assert (code, written) == (0, ["diagram.csv", "diagram.dat"])
            assert "error" not in err
        else:
            assert (code, written) == (1, [])
            assert err == f"error: bad value for [policy] cycle: '{cycle}'\n"


def valid_values(t) -> dict[str, list[str]]:
    """Values of each RunConfig field that a run on network t accepts (some
    only with other keys), boundaries included, all of them tiny."""
    zeros = ["0"] * t.n_slots
    return {
        "mode": ["discrete", "continuous"],
        "policy": list(_POLICIES),
        "horizon": ["1", "7", "50"],
        "burn_in": ["0", "3", "49"],
        "seeds": ["0", "2", "0,1", "3,1,2"],
        "cycle": ["2", "4", "7", str(2 ** 53)],
        "green_first": ["1", "2", "6"],
        "offset": ["0", "3", "-5", str(2 ** 64)],
        "q_scale": ["1", "0", "2.5", "1e308"],
        "r_scale": ["10", "1", "0.1", "1e-300"],
        "occupancy_values": [",".join(zeros), ",".join(["1"] + zeros[1:])],
        "occupancy_count": ["0", "1", str(t.counting_size)],
        "occupancy_density": ["0", "0.3", "1"],
        "densities": ["0.2", "0,0.5,1", "linspace(0,1,4)",
                      f"counts(0,{t.counting_size})"],
        "eps": ["0", "0.02", "0.5"],
        "per_road": ["yes", "off", "TRUE"],
        "r_list": ["0.5", "0.25,0.75"],
        "r_size": ["3", "8", "12"],
        "policy_list": ["priority,open_loop",
                        "local_feedback,global_feedback"],
        "response_density": ["0", "0.25", "0.5"],
        "response_horizon": ["1", "20", "50"],
        "response_band_fraction": ["0", "0.1", "2"],
        "response_policies": ["open_loop", "priority",
                              "local_feedback,global_feedback"],
    }


MUTATIONS = ["", "nan", "inf", "-inf", "-1", "-0.5", "0", "1e30",
             str(10 ** 30), "anarchy", "1,1", "open_loop,open_loop"]
# a value that sizes a run: 10**30 would step forever (an r_size of 10**30
# exits at once: numpy refuses a dimension that large before allocating)
BOUNDED = {"horizon", "response_horizon"}
# values outside their key's own range, whatever the other keys: each must
# be its parser's error, under every command and policy
OUT_OF_RANGE = {"burn_in": ["-1"], "cycle": ["0", "1"], "green_first": ["0"],
                "q_scale": ["-1", "nan"], "r_scale": ["0", "inf"],
                "occupancy_density": ["2"], "occupancy_count": ["-1"],
                "occupancy_values": ["7"]}
NETWORKS = [f"family = figure_eight\nn = {n}\nm = {m}"
            for n in (2, 4, 6) for m in (2, 3, 6)] + [
    "family = torus_city\nrows = 2\ncols = 2\nsegment_len = 3"]


@st.composite
def config_runs(draw):
    """(argv after --out, {file name: bytes}, the error line expected or
    None): a config command on a tiny network, with a horizon of at most
    50 and at most two keys mutated, repeated or unknown; any other key is
    valid or left out.  A lone mutation its key's parser rejects, or that
    lies in OUT_OF_RANGE, must be reported as that key's bad value."""
    network = draw(st.sampled_from(NETWORKS))
    t = parse_config(f"[topology]\n{network}\n").build_topology()
    valid = valid_values(t)
    values = {name: draw(st.sampled_from(valid[name]))
              for name, *_ in _SCHEMA if name in BOUNDED
              or draw(st.sampled_from([True, False, False]))}
    keys = {name: (section, key) for name, section, key, _ in _SCHEMA}
    extra = []  # (section, line) of a repeated or unknown key
    size = draw(st.sampled_from([0, 1, 1, 2]))  # a lone change half the time
    changes = draw(st.lists(st.sampled_from(list(keys)), min_size=size,
                            max_size=size))
    for name in changes:
        how = draw(st.sampled_from(["mutate"] * 3 + ["repeat", "unknown"]))
        if how == "mutate":
            pool = [v for v in MUTATIONS if name not in BOUNDED or len(v) < 5]
            if name in OUT_OF_RANGE and draw(st.booleans()):
                pool = OUT_OF_RANGE[name]
            values[name] = draw(st.sampled_from(pool))
        else:
            section, key = keys[name]
            extra.append((section, f"{'bogus' if how == 'unknown' else key}"
                                   f" = {valid[name][0]}"))
    sections = {"topology": [network]}
    for name, (section, key) in keys.items():
        if name in values:
            sections.setdefault(section, []).append(f"{key} = {values[name]}")
    for section, line in extra:
        sections.setdefault(section, []).append(line)
    text = "".join(f"[{section}]\n" + "\n".join(lines) + "\n\n"
                   for section, lines in sections.items())
    command = draw(st.sampled_from(["simulate", "diagram", "response"]))
    flags = draw(st.lists(st.sampled_from([
        ["--seeds", "1"], ["--seeds", "0"], ["--seeds", "x"],
        ["--mode", "discrete"], ["--mode", "continuous"],
        ["--policy", "open_loop"], ["--policy", "global_feedback"],
        ["--strict"]]), max_size=2))
    if command != "diagram":
        flags = [f for f in flags if f != ["--strict"]]
    error = None
    if len(changes) == 1 and not extra and ["--seeds", "x"] not in flags:
        name, section, key, parse = next(
            entry for entry in _SCHEMA if entry[0] == changes[0])
        try:
            parse(values[name])
            rejected = values[name] in OUT_OF_RANGE.get(name, ())
        except ValueError:
            rejected = True
        if rejected:
            error = f"error: bad value for [{section}] {key}: " \
                    f"{values[name]!r}\n"
    return ([command, "--config", "run.cfg", *sum(flags, [])],
            {"run.cfg": text.encode()}, error)


DIAGRAM_HEADER = b"topology_id,policy,r,density,flow,phase,converged," \
    b"seed_count"
CSV_NUMBERS = [b"0", b"0.1", b"0.25", b"0.5", b"1", b"-1", b"2", b"1e308",
               b"5e-324"]
# fields a hand-made or damaged CSV may hold: quotes, NUL, bytes that are
# not UTF-8, and one field over the csv module's 131,072-character limit
CSV_FIELDS = [b"t", b"priority", b"0.5", b"free", b"nan", b"", b'"',
              b'"a,b"', b'"x""y"', b"\x00", b"\xff\xfe", b"x" * 140_000]


@st.composite
def phases_runs(draw):
    """(argv, files, None): ``phases`` on the bytes of a diagram CSV: an
    empty file, or a header (whole, behind a BOM, or cut short) and up to
    five rows, each a well-formed one or up to nine drawn fields."""
    header = draw(st.sampled_from([DIAGRAM_HEADER] * 3 + [
        b"\xef\xbb\xbf" + DIAGRAM_HEADER, DIAGRAM_HEADER[:30]]))
    number = st.sampled_from(CSV_NUMBERS)
    well_formed = st.tuples(number, number, st.sampled_from([b"0", b"1"]),
                            st.sampled_from([b"1", b"3"])).map(
        lambda f: b"t,priority,0.5,%s,%s,free,%s,%s" % f)
    drawn = st.lists(st.sampled_from(CSV_FIELDS), max_size=9).map(b",".join)
    rows = draw(st.lists(st.one_of(well_formed, well_formed, drawn),
                         max_size=5))
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    data = draw(st.sampled_from([b"", eol.join([header, *rows]) + eol]))
    flags = draw(st.sampled_from([[], ["--eps", "0.5"], ["--eps", "nan"]]))
    return ["phases", "--input", "diagram.csv", *flags], \
        {"diagram.csv": data}, None


@st.composite
def eigen_runs(draw):
    """(argv, {}, None): ``eigen`` with n and m in [0, 60], a capacity of
    1, 2 or 3 (3 is not a choice) and 0 to 200 grid points."""
    n, m, points = (draw(st.integers(0, 60)), draw(st.integers(0, 60)),
                    draw(st.integers(0, 200)))
    capacity = draw(st.sampled_from([1, 2, 3]))
    return ["eigen", "--n", str(n), "--m", str(m), "--capacity",
            str(capacity), "--points", str(points)], {}, None


class TestExitCodes:
    """The README's exit codes as a property: every command exits 0, 1, 2
    or 3 (or 1 through argparse) and never raises; exit 1 prints one error
    line and exit 0 writes every file it names, with no numpy warning on
    the way."""

    @staticmethod
    def check(argv, files, error):
        """Run ``main`` in a fresh directory that holds ``files``, each of
        argv's file names standing for its path there."""
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                (Path(tmp) / name).write_bytes(data)
            argv = [str(Path(tmp) / a) if a in files else a for a in argv]
            out, stdout, stderr = Path(tmp) / "out", io.StringIO(), \
                io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = main(["--out", str(out), *argv])
                except SystemExit as exc:  # argparse's own usage errors
                    code = ("argparse", exc.code)
            err = stderr.getvalue()
            if error is not None:
                assert (code, err) == (1, error)
            if code == ("argparse", 1):
                assert re.search(r"^roadphases \w+: error: ", err, re.M)
            elif code == 1:
                assert err.startswith("error: ")
                assert "\nerror: " not in err
            elif code == 2:
                assert err.startswith("numerical failure: ")
            elif code == 0:
                written = stdout.getvalue().splitlines()[-1].split(" -> ")[1]
                assert all((out / name).is_file()
                           for name in written.split(", "))
            else:
                assert code == 3 and "--strict" in argv

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(run=config_runs())
    def test_every_config_exits_with_a_documented_code(self, run):
        self.check(*run)

    @pytest.mark.parametrize("name,value", [
        (name, value) for name, values in OUT_OF_RANGE.items()
        for value in values])
    def test_out_of_range_value_is_its_parsers_error(self, name, value):
        section, key = next(entry[1:3] for entry in _SCHEMA
                            if entry[0] == name)
        for command in ("simulate", "diagram", "response"):
            for policy in _POLICIES:
                sections = {"topology": [NETWORKS[0]],
                            "run": [f"policy = {policy}"]}
                sections.setdefault(section, []).append(f"{key} = {value}")
                text = "".join(f"[{s}]\n" + "\n".join(lines) + "\n"
                               for s, lines in sections.items())
                self.check([command, "--config", "run.cfg"],
                           {"run.cfg": text.encode()},
                           f"error: bad value for [{section}] {key}: "
                           f"{value!r}\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(run=phases_runs())
    def test_every_phases_input_exits_with_a_documented_code(self, run):
        self.check(*run)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(run=eigen_runs())
    def test_every_eigen_run_exits_with_a_documented_code(self, run):
        self.check(*run)


class TestBadArguments:
    """argparse's own errors exit 1, like any other invalid input."""

    @pytest.mark.parametrize("argv,error", [
        (["simulate", "--mode", "quantum"],
         "roadphases simulate: error: argument --mode: invalid choice"),
        (["eigen", "--m", "5"], "roadphases eigen: error: the following "
                                "arguments are required: --n"),
        (["simulate"], "roadphases simulate: error: the following "
                       "arguments are required: --config\n"),
        (["bogus"], "roadphases: error: argument command: invalid choice"),
        (["eigen", "--n", "x", "--m", "5"],
         "roadphases eigen: error: argument --n: invalid int value"),
        (["diagram", "--config", "sweep.cfg", "--plot"],
         "roadphases: error: unrecognized arguments: --plot"),
    ], ids=["bad_choice", "missing_flag", "missing_config", "unknown_command",
            "bad_int", "no_plot_flag"])
    def test_exits_one(self, tmp_path, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "out"), *argv])
        assert exc.value.code == 1
        assert re.search("^" + re.escape(error), capsys.readouterr().err,
                         re.M)
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: roadphases" in capsys.readouterr().out


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


def with_config(command: str, cfg_text: str):
    """The argv of ``command`` on a config file holding ``cfg_text``."""
    def argv(tmp_path) -> list[str]:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg_text)
        return [command, "--config", str(cfg_path)]
    return argv


def phases_of(name: str):
    """The argv of ``phases`` on the diagram.csv of pinned run ``name``."""
    def argv(tmp_path) -> list[str]:
        diagram = tmp_path / "diagram"
        assert main(["--out", str(diagram), *PINNED_RUNS[name](tmp_path)]) == 0
        return ["phases", "--input", str(diagram / "diagram.csv")]
    return argv


# Runs whose every output file is pinned by its sha256, line endings
# included: the README promises byte-identical outputs for identical configs
# and seeds, and together these runs write every kind of output file but
# the SVG.  Discrete flows are integer sums divided once; eigen rows are
# closed forms, and phases rows compare the pinned diagram's flows.  The
# global-feedback runs round the LQR control to whole green slots, so the
# last digits of the gain do not reach their bytes.  Response distances are
# BLAS norms; another BLAS may round their last digit differently.
PINNED_RUNS = {
    "fig8_table3": with_config(
        "simulate", TABLE1_CFG.replace("continuous", "discrete")),
    "city_open_loop": with_config("simulate", """\
[topology]
family = torus_city
rows = 3
cols = 3
segment_len = 5

[run]
mode = discrete
horizon = 300
policy = open_loop
seeds = 0

[occupancy]
density = 0.4
"""),
    "fig8_priority_diagram": with_config("diagram", """\
[topology]
family = figure_eight
n = 45
m = 15

[run]
mode = discrete
horizon = 240
seeds = 0,1

[diagram]
densities = counts(0,59)
"""),
    "city_local_feedback_roads": with_config("diagram", """\
[topology]
family = torus_city
rows = 3
cols = 3
segment_len = 4

[run]
mode = discrete
horizon = 200
seeds = 0,1

[diagram]
densities = linspace(0,1,6)
policy_list = local_feedback
per_road = true
"""),
    "city_global_feedback_response": with_config("response", """\
[topology]
family = torus_city
rows = 3
cols = 3
segment_len = 4

[run]
mode = discrete
seeds = 0,1

[response]
horizon = 150
policies = global_feedback
"""),
    "city_global_feedback_roads": with_config("diagram", """\
[topology]
family = torus_city
rows = 4
cols = 4
segment_len = 5

[run]
mode = discrete
horizon = 200
seeds = 0,1

[diagram]
densities = linspace(0,1,6)
policy_list = global_feedback
per_road = true
"""),
    "eigen_45_15": lambda tmp_path: ["eigen", "--n", "45", "--m", "15"],
    "eigen_45_15_capacity2": lambda tmp_path: [
        "eigen", "--n", "45", "--m", "15", "--capacity", "2"],
    "fig8_priority_phases": phases_of("fig8_priority_diagram"),
}

PINNED_DIGESTS = {
    "city_global_feedback_response": {
        "response_global_feedback_seed0.csv":
            "f8982f1e11201486cec71c43ef6a2b9e2a90bebec2afdd8788f8408b24510b6b",
        "response_global_feedback_seed1.csv":
            "fcdc7ca6cdb52f455cd953ba3d77a2bd76132b92edc8b15240ab4e7c40b58f3f",
        "response_summary.csv":
            "c4024a799caead61f64df7fab71bd4bda0105e7ce0919e7f7ca0534b480d0274",
    },
    "city_global_feedback_roads": {
        "diagram.csv":
            "ded09e7c233eed45ae7d765138e200fac654771a5543ddb83cd9e9326c9395b3",
        "diagram.dat":
            "af3f2aacc456586befcf2475047b3c655ea2466d9e2e71e4e63106bde205fe6c",
        "diagram_roads.csv":
            "8961f3477afd2a6c30d11a857c7118575759f52252e03a680cb3dbd37cedee40",
    },
    "city_local_feedback_roads": {
        "diagram.csv":
            "18a6ef98af0b3657bbaaa308713665b59fa3dac8ee5bddc2d0ec362892d8b2d3",
        "diagram.dat":
            "9591c4dc32fddb25a7d20340c42aa5cf2d750885c4cc4e81e78d2d220a6e4e7f",
        "diagram_roads.csv":
            "f7c139399a6d128070cfc4522890ecc30f8a4c432d2d13dae7da4e9ae295e658",
    },
    "city_open_loop": {
        "counters.tsv":
            "0c07f94eeb38e1d450793b968b7fca5a4be3e464448dd40ab431fc958291b065",
        "occupancy.txt":
            "4dd53b421b5f11387e42cdd23099d85df1b200fb9835f59b71218839a2c82f6b",
    },
    "eigen_45_15": {
        "eigen.csv":
            "54c13e4acebafde4397cff5e6c7dc9dd2a56196c95338cbb02edc2e66d7835f0",
    },
    "eigen_45_15_capacity2": {
        "eigen.csv":
            "639bb026252aad93fa36ea5334050bb265c58b97fdec395a3105f0495d729479",
    },
    "fig8_priority_diagram": {
        "diagram.csv":
            "7b139f6bdc0a2345f9fde540f994f136b54ab3a44f2a2f22b7835c5a5ca5aca3",
        "diagram.dat":
            "5c05a09a8d175babf9cc93bb1e1e90569983c2351d80c50188a2d27a0ce58391",
    },
    "fig8_priority_phases": {
        "phases.csv":
            "08549d66860ef870fbcfd15e3914e4b6cc1d91306045cf39e65421fc8750475d",
    },
    "fig8_table3": {
        "counters.tsv":
            "410aeb19f1b981c94650c6c820a4dedd8eee9d0650c35c6e8672c2829c4f974b",
        "occupancy.txt":
            "72b32fc3f5ae4f3bb6b45081ad228d90b672714431562c8d6bf542cf1ac20bde",
    },
}


def output_digests(argv: list[str], tmp_path) -> dict:
    """sha256 of every file one CLI run of ``argv`` writes, by file name."""
    out = tmp_path / "out"
    assert main(["--out", str(out), *argv]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_outputs_match_recorded_digests(self, name, tmp_path):
        assert output_digests(PINNED_RUNS[name](tmp_path), tmp_path) == \
            PINNED_DIGESTS[name]
