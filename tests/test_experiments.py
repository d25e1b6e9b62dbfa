import math

import numpy as np
import pytest

from ductflow import experiments
from ductflow.experiments import (ARRESTED_VELOCITY_BOUND, DEFAULT_REFINEMENTS, ExperimentRow,
                                  ExperimentTable, reproduce_tables, run_cell)
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh
from ductflow.report import SolveReport, abstol_for
from ductflow.trust_region import TrsConfig


def test_default_grid_targets_reference_node_counts():
    targets = (559, 1129, 2169)
    for refinement, target in zip(DEFAULT_REFINEMENTS, targets):
        n_nodes = 1 + 3 * refinement * (refinement + 1)
        assert abs(n_nodes - target) <= 0.3 * target


def test_run_cell_reports_consistent_metrics():
    ops = assemble(generate_disk_mesh(6), f=1.0)
    row = run_cell(2.0, 0.1, ops)
    assert row.status == "ok"
    assert row.trs.converged and row.alg2.converged
    assert row.trs.iterations >= 1 and row.alg2.iterations >= 1
    assert row.speedup == row.alg2.wall_time / row.trs.wall_time
    assert 0.0 < row.error_trs < 0.1 and 0.0 < row.error_alg2 < 0.1


@pytest.fixture(scope="module")
def coarse_table():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "DEFAULT_REFINEMENTS", (6,))
        return reproduce_tables()


def test_reduced_grid_table_rendering(coarse_table):
    table = coarse_table
    assert len(table.rows) == 6 + 1
    assert table.all_converged

    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("kind,alpha,tau0")
    assert len(lines) == 1 + 6 + 1
    assert all(line.startswith("cylinder,") for line in lines[1:-1])
    assert lines[-1].startswith("plug_stop,2.0,0.6,")

    text = table.to_text()
    marked = [line for line in text.splitlines() if "arrested flow" in line]
    assert "err TRS" in text and len(marked) == 1
    assert marked[0].split()[:2] == ["2", "0.6"] and "max |y|" in marked[0]


def test_arrested_cell_runs_both_solvers(coarse_table):
    plug = coarse_table.rows[-1]
    assert (plug.kind, plug.alpha, plug.tau0, plug.status) == ("plug_stop", 2.0, 0.6, "ok")
    assert plug.trs.converged and plug.alg2.converged
    assert 0.0 <= plug.error_trs <= ARRESTED_VELOCITY_BOUND
    assert 0.0 <= plug.error_alg2 <= ARRESTED_VELOCITY_BOUND
    assert plug.speedup == plug.alg2.wall_time / plug.trs.wall_time


def test_failed_cells_are_marked_not_raised():
    table = ExperimentTable(rows=[
        ExperimentRow(alpha=2.0, tau0=0.1, n_nodes=10, status="FAILED"),
        ExperimentRow(alpha=2.0, tau0=0.6, n_nodes=10),
    ])
    assert not table.all_converged
    assert [r.kind for r in table.rows] == ["cylinder", "plug_stop"]
    assert "FAILED" in table.to_csv()
    assert math.isnan(table.rows[0].error_trs)
    assert math.isnan(table.rows[0].speedup)


def test_unconverged_trs_fails_the_row_and_keeps_its_report():
    ops = assemble(generate_disk_mesh(6), f=1.0)
    row = run_cell(2.0, 0.1, ops, trs_cfg=TrsConfig(abstol=abstol_for(ops.tri), max_outer=1))
    assert row.status == "FAILED"
    assert row.trs.iterations == 1 and not row.trs.converged
    assert math.isnan(row.error_trs) and math.isnan(row.speedup)
    assert row.alg2.converged and row.error_alg2 < 0.1
    header, line = ExperimentTable(rows=[row]).to_csv().splitlines()
    cells = dict(zip(header.split(","), line.split(",")))
    assert (cells["error_trs"], cells["iterations_trs"], cells["speedup"],
            cells["status"]) == ("nan", "1", "nan", "FAILED")


def test_zero_trs_time_gives_nan_speedup():
    row = ExperimentRow(alpha=2.0, tau0=0.1, n_nodes=7,
                        alg2=SolveReport(status="converged", wall_time=1.0))
    assert row.trs.wall_time == 0.0 and math.isnan(row.speedup)


def test_moving_arrested_flow_fails_its_row(monkeypatch):
    # a converged run whose velocity does not vanish, from either solver
    def moving_trs(params, ops, cfg=None):
        report = SolveReport(iterations=1, status="converged")
        return np.zeros(ops.n_stress), np.full(ops.n_free, 1e-3), report

    def moving_alg2(params, ops, cfg=None):
        report = SolveReport(iterations=1, status="converged")
        return np.full(ops.n_free, 1e-3), np.zeros(ops.n_stress), np.zeros(ops.n_stress), report

    for name, moving, column in (("solve_trs", moving_trs, "error_trs"),
                                 ("solve_alg2", moving_alg2, "error_alg2")):
        with monkeypatch.context() as patch:
            patch.setattr(experiments, name, moving)
            patch.setattr(experiments, "DEFAULT_REFINEMENTS", (2,))
            table = reproduce_tables()
        plug = table.rows[-1]
        assert plug.kind == "plug_stop" and plug.trs.converged and plug.alg2.converged
        assert getattr(plug, column) == 1e-3
        assert plug.status == "FAILED" and not table.all_converged
        header, *_, line = table.to_csv().splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert (cells[column], cells["speedup"], cells["status"]) == ("0.001", "nan", "FAILED")
