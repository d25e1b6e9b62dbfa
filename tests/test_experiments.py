import math

import numpy as np

from ductflow import experiments
from ductflow.experiments import (DEFAULT_REFINEMENTS, ExperimentRow, ExperimentTable,
                                  PlugStopRow, reproduce_tables, run_cell)
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh
from ductflow.report import SolveReport
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


def test_reduced_grid_table_rendering():
    table = reproduce_tables(refinements=(6,))
    assert len(table.rows) == 6
    assert len(table.plug_rows) == 1
    assert table.all_converged

    plug = table.plug_rows[0]
    assert plug.tau0 == 0.6
    assert plug.max_velocity <= 1e-6

    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("kind,alpha,tau0")
    assert len(lines) == 1 + 6 + 1
    assert lines[-1].startswith("plug_stop")

    text = table.to_text()
    assert "err TRS" in text and "arrested flow" in text


def test_failed_cells_are_marked_not_raised():
    table = ExperimentTable(
        rows=[ExperimentRow(alpha=2.0, tau0=0.1, n_nodes=10, status="FAILED")],
        plug_rows=[PlugStopRow(tau0=0.6, n_nodes=10, max_velocity=0.0)],
    )
    assert not table.all_converged
    assert "FAILED" in table.to_csv()
    assert math.isnan(table.rows[0].error_trs)
    assert math.isnan(table.rows[0].speedup)


def test_unconverged_trs_fails_the_row_and_keeps_its_report():
    ops = assemble(generate_disk_mesh(6), f=1.0)
    row = run_cell(2.0, 0.1, ops, trs_cfg=TrsConfig(max_outer=1))
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
    # a converged TRS run whose velocity does not vanish
    def moving(params, ops, cfg=None):
        report = SolveReport(iterations=1, status="converged")
        return np.zeros(ops.n_stress), np.full(ops.n_free, 1e-3), report

    monkeypatch.setattr(experiments, "solve_trs", moving)
    table = reproduce_tables(refinements=(2,))
    plug = table.plug_rows[0]
    assert plug.max_velocity == 1e-3 and plug.trs.converged
    assert plug.status == "FAILED" and not table.all_converged
    assert table.to_csv().splitlines()[-1].endswith(",1,,,,,FAILED")
