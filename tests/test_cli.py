import json

import numpy as np
import pytest

from ductflow.augmented_lagrangian import Alg2Config
from ductflow.cli import RunConfig, _build_parser, _merged, _read_config_file, main
from ductflow.export import write_vtk
from ductflow.fem import assemble
from ductflow.mesh import generate_disk_mesh, load_mesh
from ductflow.objective import FluidParams
from ductflow.trust_region import TrsConfig, solve_trs
from test_mesh import TWO_PART_MESH


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSolveCommand:
    def test_happy_path_writes_csv_and_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--solver", "trs", "--mesh", "disk:3",
                     "--alpha", "2", "--tau0", "0.1", "--out", str(out)])
        assert code == 0
        assert (out / "velocity_trs.csv").exists()
        assert (out / "stress_trs.csv").exists()
        report = read_json(out / "report_trs.json")
        assert report["status"] == "converged"
        assert "[trs] status=converged" in capsys.readouterr().out

    def test_shear_thickening_rejected_with_exit_one(self, tmp_path, capsys):
        code = main(["solve", "--alpha", "2.5", "--mesh", "disk:2",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_unknown_solver_rejected(self, tmp_path, capsys):
        code = main(["solve", "--solver", "trs", "--mesh", "wedge:3",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "mesh" in capsys.readouterr().err

    def test_missing_mesh_file_exits_three(self, tmp_path, capsys):
        code = main(["solve", "--mesh", "file:/nonexistent/duct.mesh",
                     "--out", str(tmp_path / "x")])
        assert code == 3

    def test_both_solvers_write_comparison(self, tmp_path, capsys):
        out = tmp_path / "both"
        code = main(["solve", "--solver", "both", "--mesh", "disk:3",
                     "--alpha", "1.5", "--tau0", "0.2", "--out", str(out)])
        assert code == 0
        trs = read_json(out / "report_trs.json")
        alg2 = read_json(out / "report_alg2.json")
        assert trs["iterations"] < alg2["iterations"]
        assert "relative_difference" in capsys.readouterr().out

    def test_nonconvergence_exits_two(self, tmp_path):
        code = main(["solve", "--solver", "alg2", "--mesh", "disk:3",
                     "--alpha", "2", "--tau0", "0.1", "--alg2-max-outer", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_stalled_run_exits_two(self, tmp_path, capsys):
        code = main(["solve", "--solver", "trs", "--mesh", "square:12", "--alpha", "1.5",
                     "--tau0", "0.3", "--abstol", "1e-12", "--reltol", "1e-6",
                     "--max-outer", "5000", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "[trs] status=stalled" in capsys.readouterr().out
        assert read_json(tmp_path / "x" / "report_trs.json")["status"] == "stalled"

    @pytest.mark.parametrize("flag, value, message", [
        ("--abstol", "nan", "tolerances must be positive and finite"),
        ("--r", "inf", "r must be positive and finite"),
        ("--max-outer", "0", "max_outer must be at least 1"),
    ])
    def test_out_of_range_setting_exits_one(self, tmp_path, capsys, flag, value, message):
        code = main(["solve", "--solver", "both", "--mesh", "disk:3", flag, value,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_flag_value_exits_one_naming_the_flag(self, tmp_path, capsys):
        code = main(["solve", "--alpha", "abc", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--alpha: invalid alpha value 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_file_value_exits_one_naming_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mesh = disk:2\nalpha = abc\n")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"{cfg}:2: invalid alpha value 'abc'" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        code = main(["solve", "--tau-0", "0.3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--tau-0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--divtol", "--delta0", "--delta-max", "--eta",
                                      "--gamma", "--max-cg", "--newton-max"])
    def test_solver_constants_are_not_options(self, tmp_path, capsys, flag):
        code = main(["solve", "--mesh", "disk:2", flag, "0.2", "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kappa", ["1e-300", "1e300"])
    def test_kappa_power_out_of_range_exits_one(self, tmp_path, capsys, kappa):
        # kappa^(1/(alpha-1)) = kappa^2 under- or overflows
        code = main(["solve", "--mesh", "disk:3", "--alpha", "1.5", "--kappa", kappa,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: kappa = {float(kappa)} is out of range")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("alpha, kappa", [("2", "5e-324"), ("1.5", "1e-160")])
    def test_subnormal_kappa_power_exits_one(self, tmp_path, capsys, alpha, kappa):
        # kappa^(1/(alpha-1)) is subnormal, so its reciprocal overflows
        code = main(["solve", "--mesh", "disk:3", "--alpha", alpha, "--kappa", kappa,
                     "--tau0", "0.1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: kappa = {float(kappa)} is out of range")
        assert not (tmp_path / "x").exists()

    def test_non_finite_model_exits_two(self, tmp_path, capsys):
        # the Hessian prefactor divides by kappa^(1/(alpha-1)) = 8.7e-308
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", "--mesh", "disk:3", "--alpha", "1.01", "--kappa", "8.5e-4",
                         "--tau0", "0.1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "[trs] status=non_finite" in capsys.readouterr().out

    def test_non_ascii_config_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "greek.cfg"
        cfg.write_bytes("mesh = disk:2\ntau0 = 0.1  # \u03c4\u2080\n".encode("utf-8"))
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: {cfg}: config file must be ASCII" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_vanishing_analytic_profile_is_not_compared(self, tmp_path):
        # beta = 10^4: the closed-form profile underflows to zero at every
        # node, so there is no relative error to report
        out = tmp_path / "thin"
        code = main(["solve", "--solver", "both", "--mesh", "disk:3", "--alpha", "1.0001",
                     "--tau0", "0.1", "--format", "json", "--out", str(out)])
        assert code in (0, 2)
        for solver in ("trs", "alg2"):
            assert "error_vs_analytic" not in read_json(out / f"report_{solver}.json")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--alg2-max-outer" in capsys.readouterr().out

    def test_zero_disk_refinement_exits_one(self, tmp_path, capsys):
        code = main(["solve", "--mesh", "disk:0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "refinement must be >= 1" in capsys.readouterr().err

    def test_non_finite_force_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["solve", "--mesh", "disk:2", "--force", "nan", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: force density must be finite\n"
        assert not out.exists()

    def test_factorisation_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        import ductflow.fem as fem

        def singular(matrix, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(fem, "splu", singular)
        code = main(["solve", "--mesh", "disk:2", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: factorisation of D*D^T") and "Traceback" not in err

    def test_unconverged_shrink_newton_exits_two(self, tmp_path, capsys):
        # both tolerances are valid, but no Newton step gets below them;
        # alpha = 1.75 because alpha = 2 and 3/2 shrink in closed form
        code = main(["solve", "--solver", "alg2", "--mesh", "disk:4", "--alpha", "1.75",
                     "--newton-abstol", "1e-300", "--newton-reltol", "1e-300",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: strain-rate Newton did not converge on element 0 (|w| = 0.")
        assert "np.float64" not in err and "Traceback" not in err

    def test_mesh_part_without_dirichlet_node_exits_one(self, tmp_path, capsys):
        path = tmp_path / "two_parts.mesh"
        path.write_text(TWO_PART_MESH)
        code = main(["solve", "--mesh", f"file:{path}", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == ("error: invariant violated: the mesh part "
                                           "containing node 3 has no Dirichlet node\n")

    def test_square_mesh_solves_without_analytic_error(self, tmp_path, capsys):
        out = tmp_path / "square"
        code = main(["solve", "--solver", "both", "--mesh", "square:6", "--alpha", "2",
                     "--tau0", "0.1", "--format", "json", "--out", str(out)])
        assert code == 0
        report = read_json(out / "report_trs.json")
        assert report["mesh"] == "square:6" and report["n_triangles"] == 72
        assert "error_vs_analytic" not in report
        assert "[both] n_nodes=49" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["square:0", "square:x"])
    def test_bad_square_refinement_exits_one(self, tmp_path, capsys, spec):
        code = main(["solve", "--mesh", spec, "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "refinement must be >= 1" in err or "square mesh needs an integer" in err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.75\ntau0 = 0.2\nmesh = disk:2\n# comment\n")
        out = tmp_path / "cfgout"
        code = main(["solve", "--config", str(cfg), "--tau0", "0.1",
                     "--out", str(out)])
        assert code == 0
        report = read_json(out / "report_trs.json")
        assert report["alpha"] == 1.75   # from file
        assert report["tau0"] == 0.1     # flag wins

    def test_bad_config_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 2\n")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("mesh = disk:2\ntau_0 = 0.3\n")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"{cfg}:2: unknown option 'tau_0'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["solve", "--solver", "both", "--mesh", "disk:3",
                         "--alpha", "1.75", "--tau0", "0.2", "--format",
                         "csv,vtk,json", "--out", str(out)])
            assert code == 0
            outs.append(out)
        for fname in ("velocity_trs.csv", "stress_trs.csv", "solution_trs.vtk",
                      "velocity_alg2.csv", "stress_alg2.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        for fname in ("report_trs.json", "report_alg2.json"):
            first = read_json(outs[0] / fname)
            second = read_json(outs[1] / fname)
            first.pop("wall_time")
            second.pop("wall_time")
            assert first == second


class TestMergedOptions:
    def test_unset_options_take_dataclass_defaults(self):
        cfg = _merged(_build_parser().parse_args(["solve"]))
        assert cfg.trs == TrsConfig()
        assert cfg.alg2 == Alg2Config()
        assert cfg == RunConfig()

    def test_max_outer_caps_trs_only(self):
        cfg = _merged(_build_parser().parse_args(
            ["solve", "--solver", "both", "--max-outer", "7"]))
        assert (cfg.trs.max_outer, cfg.alg2.max_outer) == (7, Alg2Config().max_outer)

    def test_alg2_max_outer_caps_alg2_from_flag_or_file(self, tmp_path):
        path = tmp_path / "caps.cfg"
        path.write_text("alg2_max_outer = 70\n")
        for argv in (["--config", str(path)], ["--alg2-max-outer", "70"]):
            cfg = _merged(_build_parser().parse_args(["solve", *argv]))
            assert (cfg.trs.max_outer, cfg.alg2.max_outer) == (TrsConfig().max_outer, 70)

    def test_flags_and_file_keys_are_one_set(self, tmp_path):
        flags = set(vars(_build_parser().parse_args(["solve"]))) - {"command", "config"}
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{name} = 1\n" for name in sorted(flags)))
        assert set(_read_config_file(path)) == flags
        assert len(flags) == 15


class TestExports:
    def test_vtk_structure(self, tmp_path):
        out = tmp_path / "vtk"
        code = main(["solve", "--mesh", "disk:2", "--alpha", "2", "--tau0", "0.1",
                     "--format", "vtk", "--out", str(out)])
        assert code == 0
        lines = (out / "solution_trs.vtk").read_text().splitlines()
        tri = generate_disk_mesh(2)
        assert lines[0].startswith("# vtk DataFile")
        assert "ASCII" in lines
        points_at = lines.index(f"POINTS {tri.n_nodes} double")
        cells_at = lines.index(f"CELLS {tri.n_triangles} {4 * tri.n_triangles}")
        types_at = lines.index(f"CELL_TYPES {tri.n_triangles}")
        assert points_at < cells_at < types_at
        cell_types = lines[types_at + 1:types_at + 1 + tri.n_triangles]
        assert all(value == "5" for value in cell_types)
        assert f"POINT_DATA {tri.n_nodes}" in lines
        assert f"CELL_DATA {tri.n_triangles}" in lines

    def test_arrested_flow_has_no_yielded_cells(self, tmp_path):
        out = tmp_path / "stop"
        code = main(["solve", "--mesh", "disk:3", "--alpha", "2", "--tau0", "0.6",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "stress_trs.csv").read_text().splitlines()[1:]
        assert all(row.rsplit(",", 1)[1] == "0" for row in rows)

    def test_zero_yield_stress_flags_all_stressed_cells(self, tmp_path):
        out = tmp_path / "newton"
        code = main(["solve", "--mesh", "disk:3", "--alpha", "2", "--tau0", "0",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "stress_trs.csv").read_text().splitlines()[1:]
        for row in rows:
            _, mag, flag = row.split(",")
            assert (flag == "1") == (float(mag) > 0.0)

    def test_vtk_velocity_values_match_solver(self, tmp_path):
        tri = generate_disk_mesh(2)
        ops = assemble(tri, f=1.0)
        params = FluidParams(alpha=2.0, kappa=1.0, tau0=0.1)
        tau, y, _ = solve_trs(params, ops)
        path = tmp_path / "check.vtk"
        write_vtk(path, tri, y, tau, params.tau0)
        lines = path.read_text().splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        values = np.array([float(v) for v in lines[start:start + tri.n_nodes]])
        full = np.zeros(tri.n_nodes)
        full[tri.free_nodes] = y
        np.testing.assert_array_equal(values, full)


class TestReproduceCommand:
    def test_writes_tables_and_exits_zero(self, tmp_path, capsys, monkeypatch):
        import ductflow.cli as cli
        from ductflow.experiments import reproduce_tables

        # a single coarse refinement keeps the smoke test quick; the full
        # grid is exercised by the acceptance suite
        monkeypatch.setattr(cli, "reproduce_tables",
                            lambda progress=None: reproduce_tables(refinements=(6,)))
        out = tmp_path / "tables"
        assert main(["reproduce", "--out", str(out)]) == 0
        assert (out / "tables.csv").exists()
        text = (out / "tables.txt").read_text()
        assert "err TRS" in text and "arrested flow" in text
        assert "err TRS" in capsys.readouterr().out

    def test_failed_cell_exits_two(self, tmp_path, monkeypatch):
        import ductflow.cli as cli
        from ductflow.experiments import ExperimentRow, ExperimentTable

        broken = ExperimentTable(rows=[ExperimentRow(alpha=2.0, tau0=0.1,
                                                     n_nodes=7, status="FAILED")])
        monkeypatch.setattr(cli, "reproduce_tables", lambda progress=None: broken)
        assert main(["reproduce", "--out", str(tmp_path / "t")]) == 2


class TestMeshCommands:
    def test_gen_and_check_round_trip(self, tmp_path, capsys):
        path = tmp_path / "disk.mesh"
        assert main(["mesh", "gen", "--refinement", "3", "--out", str(path)]) == 0
        tri = load_mesh(path)
        assert tri.n_nodes == 37
        assert main(["mesh", "check", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_invalid_mesh_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.mesh"
        path.write_text("nodes 3\n0 0 1\n1 0 1\n0 1 1\ntriangles 1\n0 1 5\n")
        assert main(["mesh", "check", str(path)]) == 1

    @pytest.mark.parametrize("body,line", [
        ("nodes 100000000000\n0 0 1\n", 1),
        ("nodes 3\n0 0 1\n1 0 1\n0 1 0\ntriangles 100000000000\n0 1 2\n", 5),
    ], ids=["nodes", "triangles"])
    def test_check_huge_header_count_exits_one(self, tmp_path, capsys, body, line):
        path = tmp_path / "huge.mesh"
        path.write_text(body)
        assert main(["mesh", "check", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: line {line}: unexpected end of file")

    def test_check_mesh_part_without_dirichlet_node_exits_one(self, tmp_path, capsys):
        path = tmp_path / "two_parts.mesh"
        path.write_text(TWO_PART_MESH)
        assert main(["mesh", "check", str(path)]) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert captured.err == ("error: invariant violated: the mesh part "
                                "containing node 3 has no Dirichlet node\n")

    def test_check_huge_node_index_exits_one(self, tmp_path, capsys):
        path = tmp_path / "huge.mesh"
        path.write_text("nodes 3\n0 0 1\n1 0 1\n0 1 1\ntriangles 1\n0 1 99999999999999999999\n")
        assert main(["mesh", "check", str(path)]) == 1
        assert capsys.readouterr().err == ("error: line 6: node index "
                                           "'99999999999999999999' out of range\n")

    def test_gen_zero_refinement_exits_one(self, tmp_path, capsys):
        path = tmp_path / "zero.mesh"
        assert main(["mesh", "gen", "--refinement", "0", "--out", str(path)]) == 1
        assert "refinement must be >= 1" in capsys.readouterr().err
        assert not path.exists()

    def test_check_missing_file_exits_three(self, tmp_path):
        assert main(["mesh", "check", str(tmp_path / "missing.mesh")]) == 3

    def test_solve_accepts_generated_mesh_file(self, tmp_path):
        path = tmp_path / "disk.mesh"
        assert main(["mesh", "gen", "--refinement", "3", "--out", str(path)]) == 0
        out = tmp_path / "filerun"
        code = main(["solve", "--mesh", f"file:{path}", "--alpha", "2",
                     "--tau0", "0.1", "--out", str(out)])
        assert code == 0
        report = read_json(out / "report_trs.json")
        # file meshes carry no analytic reference even if they are disks
        assert "error_vs_analytic" not in report
