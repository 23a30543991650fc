import csv
import json

import pytest

from aoisched.cli import main, parse_grid
from aoisched.model import (Scenario, ScenarioError, UeClass, UeConfig, Variant,
                            load_scenario, save_scenario)
from aoisched.presets import reference_constrained, reference_weighted
from aoisched.sim import PolicySpec, RunConfig, run


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "ref.json"
    save_scenario(reference_weighted(), path)
    return path


@pytest.fixture
def constrained_file(tmp_path):
    path = tmp_path / "refc.json"
    save_scenario(reference_constrained(beta=2.0), path)
    return path


# -- scenario parsing ------------------------------------------------------------

def test_parse_round_trip(tmp_path, scenario_file):
    scn = load_scenario(scenario_file)
    again = tmp_path / "again.json"
    save_scenario(scn, again)
    assert load_scenario(again) == scn


def test_parse_names_offending_field(tmp_path):
    doc = {"variant": "latency_weighted",
           "ue": [{"id": 1, "class": "aoi", "q": 1.5, "p": 0.7, "rho": 1.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="q must be"):
        load_scenario(path)


def test_parse_rejects_class_mismatch(tmp_path):
    doc = {"variant": "latency_weighted",
           "ue": [{"id": 3, "class": "throughput", "p": 0.9, "alpha": 0.2,
                   "beta": 2.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="beta does not apply"):
        load_scenario(path)


def test_parse_rejects_unknown_key(tmp_path):
    doc = {"variant": "latency_weighted",
           "ue": [{"id": 1, "class": "aoi", "q": 0.9, "p": 0.7, "rho": 1.0,
                   "speed": 11}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="speed"):
        load_scenario(path)


@pytest.mark.parametrize("ue,field", [
    ({"id": 1, "class": "aoi", "q": "0.9", "p": 0.7, "rho": 1.0}, "q"),
    ({"id": True, "class": "aoi", "q": 0.9, "p": 0.7, "rho": 1.0}, "id"),
    ({"id": [1], "class": "aoi", "q": 0.9, "p": 0.7, "rho": 1.0}, "id"),
    ({"id": 1, "class": "aoi", "q": 0.9, "p": None, "rho": 1.0}, "p"),
    ({"id": 1, "class": "aoi", "q": 0.9, "p": True, "rho": 1.0}, "p"),
    ({"id": 1, "class": "aoi", "q": 0.9, "p": 0.7, "rho": float("inf")}, "rho"),
    ({"id": 1, "class": "aoi", "q": 0.9, "p": 0.7, "rho": True}, "rho"),
    ({"id": 2, "class": "latency", "q": 0.2, "p": 0.8, "beta": float("inf")}, "beta"),
    ({"id": 3, "class": "throughput", "p": 0.9, "alpha": "0.2"}, "alpha"),
])
def test_malformed_values_are_scenario_errors(tmp_path, capsys, ue, field):
    variant = "latency_constrained" if "beta" in ue else "latency_weighted"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variant": variant, "ue": [ue]}))
    with pytest.raises(ScenarioError, match=f"{field} must be"):
        load_scenario(path)
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_grid_forms():
    assert parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    assert parse_grid("1.5,2.0,3") == [1.5, 2.0, 3.0]
    with pytest.raises(ScenarioError):
        parse_grid("1:2")


@pytest.mark.parametrize("grid,reason", [
    ("0:1:nan", "not finite"),
    ("0:inf:0.1", "not finite"),
    ("0.1,abc", "not a number"),
    ("x:1:0.1", "not a number"),
    ("0.5:0.1:0.1", "no values"),
    ("", "no values"),
    ("0:1e308:1e-308", "number of steps"),
])
def test_cli_malformed_grid_exits_1(scenario_file, tmp_path, capsys, grid, reason):
    # each ended in a ValueError or OverflowError traceback, or (the two
    # "no values" grids) in a header-only CSV and exit 0
    out = tmp_path / "out.csv"
    argv = ["sweep", str(scenario_file), "--param", "alpha", "--grid", grid, "--seeds", "1",
            "--horizon", "1000", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert not out.exists()


# -- subcommands -----------------------------------------------------------------

def test_cli_validate(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "feasible = True" in out
    assert "0.4722" in out


def test_cli_validate_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"variant\": \"latency_weighted\", \"ue\": []}")
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_tstar(scenario_file, capsys, tmp_path):
    out_csv = tmp_path / "t.csv"
    assert main(["tstar", str(scenario_file), "--csv", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "t_star = 2.70676" in out
    assert "threshold = 2" in out
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["ue_id", "t_star", "threshold", "mu", "binding"]
    assert rows[1][0] == "1"
    # the thresholds every run uses
    report = run(RunConfig(scenario=load_scenario(scenario_file), policy=PolicySpec("hier"),
                           horizon=10, seed=1))
    assert {int(r[0]): int(r[2]) for r in rows[1:]} == report.extras["thresholds"]


def test_cli_run_writes_csv(scenario_file, tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", str(scenario_file), "--horizon", "20000",
                 "--seed", "3", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "run_id"
    assert [r[5] for r in rows[1:4]] == ["1", "2", "3"]
    assert rows[4][4] == "summary"


@pytest.mark.parametrize("field, value", [("q", 1e-300), ("q", 5e-324), ("rho", 5e-324)])
def test_cli_aoi_parameter_without_a_finite_spacing_exits_1(scenario_file, tmp_path, capsys,
                                                             field, value):
    # the reference file with one AoI parameter so small that the spacing
    # program's constant (1 - q)/q^2, or the UE's target spacing, is not
    # finite: validate accepts it, and run names the field instead of
    # raising from the solver
    doc = json.loads(scenario_file.read_text())
    (aoi,) = [u for u in doc["ue"] if u["class"] == "aoi"]
    aoi[field] = value
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "run.csv"
    assert main(["run", str(path), "--policy", "hier", "--horizon", "100",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: ue {aoi['id']}: {field}={value!r} is too small")
    assert not out.exists()


def test_cli_rd_runs_with_an_aoi_threshold_beyond_int64(constrained_file, tmp_path):
    # AoI rho = 1e-300 gives a finite t* near 1e144 and a threshold of that
    # size: rd keeps it, capped at 2**63 - 1, in its int64 UE state, which
    # no slot difference reaches, so its AoI UE is gated as under vw
    doc = json.loads(constrained_file.read_text())
    (aoi,) = [u for u in doc["ue"] if u["class"] == "aoi"]
    aoi["rho"] = 1e-300
    path = tmp_path / "tiny_rho.json"
    path.write_text(json.dumps(doc))
    rates = {}
    for policy in ("vw", "rd"):
        out = tmp_path / f"{policy}.csv"
        assert main(["run", str(path), "--policy", policy, "--horizon", "2000",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        rates[policy] = [r["throughput"] for r in rows if r["ue_id"] == str(aoi["id"])]
    assert rates["rd"] == rates["vw"]
    report = run(RunConfig(scenario=load_scenario(path), policy=PolicySpec("rd"),
                           horizon=10, seed=1))
    assert report.extras["thresholds"][aoi["id"]] > 2 ** 63


def test_cli_tstar_without_budget_exits_1(tmp_path, capsys):
    path = tmp_path / "full.json"
    save_scenario(reference_weighted(alpha=0.72), path)  # load 0.25 + 0.8 > 1
    assert main(["tstar", str(path)]) == 1
    assert "zeta" in capsys.readouterr().err


def test_cli_run_vw_without_latency_ues(tmp_path):
    # vw is named by the caller: with no latency UE to weigh it serves as
    # hier does, but reports itself as vw and logs its (empty) weight steps
    scn = Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2),
    ), variant=Variant.LATENCY_CONSTRAINED)
    path = tmp_path / "no_latency.json"
    save_scenario(scn, path)
    out = {}
    for policy in ("hier", "vw"):
        out[policy] = tmp_path / f"{policy}.csv"
        assert main(["run", str(path), "--policy", policy, "--f", "1000",
                     "--horizon", "5000", "--seed", "4", "--out", str(out[policy])]) == 0
    hier_rows = list(csv.reader(out["hier"].open()))
    vw_rows = list(csv.reader(out["vw"].open()))
    assert [r[1] for r in vw_rows[1:]] == ["vw"] * 3
    assert [r[0] for r in vw_rows[1:]] == ["vw-h5000-s4"] * 3
    assert [r[2:] for r in vw_rows] == [r[2:] for r in hier_rows]
    report = run(RunConfig(scenario=scn, policy=PolicySpec("vw", f=1000),
                           horizon=5000, seed=4))
    assert report.extras["weight_log"] == {}  # no latency ue, so an empty trace


@pytest.mark.parametrize("f", ["0", "-3"])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "beta", "--grid", "2"]])
def test_cli_vw_weight_period_below_one_exits_1(constrained_file, tmp_path, capsys,
                                                 command, f):
    out = tmp_path / "out.csv"
    assert main([command[0], str(constrained_file), *command[1:], "--policy", "vw",
                 "--f", f, "--horizon", "5000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weight period f >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("eta", ["0", "-0.1", "nan", "inf"])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "beta", "--grid", "2"]])
def test_cli_vw_weight_step_not_positive_exits_1(constrained_file, tmp_path, capsys,
                                                 command, eta):
    out = tmp_path / "out.csv"
    assert main([command[0], str(constrained_file), *command[1:], "--policy", "vw",
                 "--eta", eta, "--horizon", "5000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weight step eta > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lb", "{scenario}", "--seeds", "0"],
    ["sweep", "{scenario}", "--param", "alpha", "--grid", "0.1", "--seeds", "0"],
    ["sweep", "{scenario}", "--param", "alpha", "--grid", "0.1", "--seeds", "-1"],
    ["reproduce", "fig4", "--seeds", "0"],
    ["reproduce", "fig5_weights", "--seeds", "0"],
    ["reproduce", "fig5_weights", "--seeds", "-3"],
], ids=["lb", "sweep-0", "sweep-neg", "reproduce", "fig5_weights-0", "fig5_weights-neg"])
def test_cli_seeds_below_one_exits_1(scenario_file, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    argv = [a.format(scenario=scenario_file) for a in argv]
    flag = "--csv" if argv[0] == "lb" else "--out"
    assert main([*argv, "--horizon", "1000", flag, str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seeds must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "{scenario}"],
    ["sweep", "{scenario}", "--param", "alpha", "--grid", "0.1", "--seeds", "1"],
    ["lb", "{scenario}"],
    ["reproduce", "fig5_cost", "--seeds", "1"],
], ids=["run", "sweep", "lb", "fig5_cost"])
def test_cli_negative_seed_exits_1(scenario_file, tmp_path, capsys, argv):
    # numpy's SeedSequence takes no negative entropy: the seed is checked
    # before any stream is derived from it
    out = tmp_path / "out.csv"
    argv = [a.format(scenario=scenario_file) for a in argv]
    flag = "--csv" if argv[0] == "lb" else "--out"
    assert main([*argv, "--seed", "-1", "--horizon", "1000", flag, str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0, got -1" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "{scenario}", "--param", "alpha", "--grid", "0.1,0.2", "--seeds", "1"],
    ["reproduce", "fig4", "--seeds", "1"],
    ["reproduce", "fig5_weights"],
], ids=["sweep", "reproduce", "fig5_weights"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_jobs_below_one_exits_1(scenario_file, tmp_path, capsys, argv, jobs):
    out = tmp_path / "out.csv"
    argv = [a.format(scenario=scenario_file) for a in argv]
    assert main([*argv, "--jobs", jobs, "--horizon", "1000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "jobs must be >= 1" in err
    assert not out.exists()


def test_cli_sweep_bytes_equal_across_jobs(constrained_file, tmp_path, capsys):
    # worker processes send back pickled reports of frozen, slotted dataclasses
    outs = []
    for jobs in "1", "2":
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["sweep", str(constrained_file), "--policy", "rd", "--param", "beta",
                     "--grid", "2,3", "--seeds", "2", "--horizon", "5000", "--jobs", jobs,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reproduce_help_says_fig5_weights_ignores_seeds_and_jobs(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["reproduce", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "fig5_weights ignores it and runs --seed alone" in text
    assert "fig5_weights ignores it and runs serially" in text


def test_cli_run_byte_identical(scenario_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", str(scenario_file), "--horizon", "20000", "--out", str(a)])
    main(["run", str(scenario_file), "--horizon", "20000", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_sweep(scenario_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(scenario_file), "--param", "alpha",
                 "--grid", "0.1:0.2:0.1", "--seeds", "2",
                 "--horizon", "20000", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "param"
    # 2 grid points x 2 seeds x 3 ues
    assert len(rows) - 1 == 12


def test_cli_lb(scenario_file, capsys):
    assert main(["lb", str(scenario_file), "--horizon", "50000",
                 "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "lb_f1 = 1.864" in out
    assert "lb =" in out


def test_cli_report_run_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "run.csv"
    main(["run", str(scenario_file), "--horizon", "20000", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# run.csv")
    assert "| run_id |" in text


def test_cli_report_empty_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["report", str(path)]) == 0
    assert "(empty)" in capsys.readouterr().out


def test_cli_report_fig8_style_verdict(tmp_path, capsys):
    path = tmp_path / "fig8.csv"
    with path.open("w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "policy", "ue_id", "avg_aoi", "avg_latency",
                         "throughput"])
        for beta in (1.5, 2.0):
            writer.writerow([beta, "vw", "3", "", "", "0.26"])
            writer.writerow([beta, "rd", "3", "", "", "0.262"])
    assert main(["report", str(path)]) == 0
    text = capsys.readouterr().out
    assert "spread" in text and "PASS" in text


def test_cli_unknown_scenario_file(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 1


def test_cli_unreadable_or_unwritable_paths_exit_1(scenario_file, tmp_path, capsys):
    # paths that exist but are a directory, or a scenario that is not
    # UTF-8 text, end in exit 1 with a message, not a traceback
    directory, binary = tmp_path / "dir", tmp_path / "binary.json"
    directory.mkdir()
    binary.write_bytes(b'{"variant": "\xff"}')
    short = ["--horizon", "100", "--seeds", "1"]
    for argv in (["validate", str(directory)], ["tstar", str(directory)],
                 ["report", str(directory)], ["validate", str(binary)],
                 ["run", str(scenario_file), "--horizon", "100", "--out", str(directory)],
                 ["sweep", str(scenario_file), "--param", "alpha", "--grid", "0.1", *short,
                  "--out", str(directory)],
                 ["lb", str(scenario_file), *short, "--csv", str(directory)]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


@pytest.mark.parametrize("lines", [
    ["beta,policy,ue_id,throughput", "1.5,vw,3,0.26", "2.0,vw,3,high"],   # not a number
    ["alpha,ue_id,throughput", "0.1,2,0.2", "0.2,2"],                    # a short row
], ids=["not-a-number", "short-row"])
def test_cli_report_rejects_a_malformed_csv(tmp_path, capsys, lines):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_report_rejects_a_file_that_is_not_text(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"alpha,ue_id,throughput\n0.1,2,\xff\xfe\n")
    assert main(["report", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
