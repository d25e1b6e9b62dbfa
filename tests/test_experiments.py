import math

from ductflow.experiments import (DEFAULT_REFINEMENTS, ExperimentRow, ExperimentTable,
                                  PlugStopRow, reproduce_tables, run_cell)
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh


def test_default_grid_targets_reference_node_counts():
    targets = (559, 1129, 2169)
    for refinement, target in zip(DEFAULT_REFINEMENTS, targets):
        n_nodes = 1 + 3 * refinement * (refinement + 1)
        assert abs(n_nodes - target) <= 0.3 * target


def test_run_cell_reports_consistent_metrics():
    ops = assemble(generate_disk_mesh(6), f=1.0)
    row = run_cell(2.0, 0.1, ops)
    assert row.status == "ok"
    assert row.iterations_trs >= 1 and row.iterations_alg2 >= 1
    assert row.speedup == row.time_alg2 / row.time_trs
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
        plug_rows=[PlugStopRow(tau0=0.6, n_nodes=10, max_velocity=0.0, iterations=1)],
    )
    assert not table.all_converged
    assert "FAILED" in table.to_csv()
    assert math.isnan(table.rows[0].error_trs)
