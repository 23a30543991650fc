import csv

import pytest

import aoisched.sim
from aoisched.cli import main
from aoisched.model import validate
from aoisched.presets import (ALPHA_GRID, PRESETS, check_fig5_weights, check_fig8,
                              reference_constrained, reference_weighted)
from aoisched.sim import lower_bound


def test_reference_scenarios_validate():
    rep = validate(reference_weighted())
    assert rep.feasible and rep.zeta == pytest.approx(1 - 0.25 - 0.2 / 0.9)
    rep = validate(reference_constrained(beta=2.0))
    assert rep.feasible and rep.rd_feasible


def test_presets_are_pinned():
    assert set(PRESETS) == {"fig4", "fig5_cost", "fig5_weights", "fig6", "fig8"}
    assert PRESETS["fig4"].grid == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert PRESETS["fig6"].policies == ("vw", "rd")


def test_reproduce_fig4_smoke(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    code = main(["reproduce", "fig4", "--horizon", "30000", "--seeds", "1",
                 "--seed", "5", "--out", str(out)])
    assert code in (0, 2)  # statistical checks may wobble at this tiny horizon
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["alpha", "ue_id", "throughput", "avg_aoi", "avg_latency",
                       "t_star", "lb", "cost"]
    assert len(rows) - 1 == 6 * 3
    text = capsys.readouterr().out
    assert "[PASS]" in text or "[FAIL]" in text


def test_reproduce_lb_cells_equal_lower_bound_per_alpha(tmp_path):
    out = tmp_path / "fig5.csv"
    main(["reproduce", "fig5_cost", "--jobs", "1", "--horizon", "10000", "--seeds", "3",
          "--seed", "2", "--out", str(out)])
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3 * len(ALPHA_GRID)
    for alpha in ALPHA_GRID:
        bound = lower_bound(reference_weighted(alpha=alpha), 10000, 2, seeds=2)
        cells = {r["lb"] for r in rows if float(r["alpha"]) == alpha}
        assert cells == {repr(bound.lb)}


@pytest.mark.parametrize("preset", ["fig4", "fig5_cost"])
def test_reproduce_alpha_simulates_the_latency_floor_once(preset, tmp_path, monkeypatch):
    runs = []
    real_run = aoisched.sim.run

    def counting_run(config):
        runs.append(config.policy.name)
        return real_run(config)

    monkeypatch.setattr(aoisched.sim, "run", counting_run)
    main(["reproduce", preset, "--jobs", "1", "--horizon", "5000", "--seeds", "4",
          "--out", str(tmp_path / "out.csv")])
    assert runs.count("hier") == 4 * len(ALPHA_GRID)
    assert runs.count("cmu") == 2  # min(seeds, 2) replicates, not one set per alpha


def test_reproduce_fig5_weights_smoke(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code = main(["reproduce", "fig5_weights", "--horizon", "100000",
                 "--seeds", "1", "--out", str(out)])
    assert code in (0, 2)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["beta", "update_index", "rho"]
    # 10 updates per beta at this horizon, three betas
    assert len(rows) - 1 == 3 * 10
    trajectory = [float(r[2]) for r in rows[1:] if r[0] == "5.0"]
    assert trajectory[-1] == 0.0


def test_reproduce_unknown_preset():
    with pytest.raises(SystemExit):
        main(["reproduce", "fig99"])


def _fig8_means(rd_shift: float) -> dict:
    """vw and rd at the same per-ue rates, except rd's ue 1 at beta=2.0."""
    rates = {1: 0.3, 2: 0.2, 3: 0.3}
    means = {}
    for policy in ("vw", "rd"):
        means[policy] = {}
        for beta in (1.5, 2.0, 2.5):
            ues = {u: {"throughput": r} for u, r in rates.items()}
            if policy == "rd" and beta == 2.0:
                ues[1] = {"throughput": rates[1] + rd_shift}
            means[policy][beta] = {"ues": ues}
    return means


@pytest.mark.parametrize("rd_shift,agree", [(0.0, True), (0.02, False)])
def test_fig8_summary_reflects_vw_rd_agreement(rd_shift, agree):
    verdicts = {name: ok for name, ok, _ in check_fig8(_fig8_means(rd_shift))}
    assert verdicts["fig8: vw and rd per-ue rates agree +- 0.01 on the grid"] is agree
    point = "fig8 beta=2.0 ue 1: vw and rd rates agree +- 0.01"
    assert (point in verdicts) is not agree
    if not agree:
        assert verdicts[point] is False


def test_fig5_weights_check_without_updates_fails_cleanly():
    verdicts = list(check_fig5_weights({1.0: [], 2.0: [], 5.0: []}))
    assert [ok for _, ok, _ in verdicts] == [False, True, False]
    assert verdicts[0][2] == "max over 0 updates = 0.00"
