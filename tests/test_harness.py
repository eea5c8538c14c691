"""Harness and CLI: norms, configs, CSV emission, reproducibility."""

import numpy as np
import pytest

import io
from dataclasses import replace

from compactbp.cli import main, parse_config_file
from compactbp.harness import (ConfigError, RunConfig, _meta_lines, _write_single_csv,
                               build_scheme, error_norms, format_study_table,
                               observed_order, run_convergence_study, run_level,
                               run_single)
from compactbp.schemes2d import Problem2D


class TestErrorNorms:
    def test_zero_error(self):
        u = np.ones(8)
        assert error_norms(u, u, 0.1) == (0.0, 0.0)

    def test_arithmetic(self):
        # L1 = dx * sum |e|, Linf = max |e|
        num = np.array([1.0, -1.0])
        assert error_norms(num, np.zeros(2), 0.5) == (1.0, 1.0)

    def test_order_identity(self):
        assert observed_order(1e-2, 6.25e-4, 40, 80) == pytest.approx(4.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_norms(np.zeros(3), np.zeros(4), 0.1)

    def test_2d_volume(self):
        num = np.ones((2, 2))
        l1, linf = error_norms(num, np.zeros((2, 2)), 0.5, 0.25)
        assert l1 == pytest.approx(0.5)
        assert linf == 1.0


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            RunConfig(problem="linadv-sin4", refine=(80, 40))
        # the periodic 1D scheme checks its TVB rules when it is built
        cfg = RunConfig(problem="convdiff-lin", tvb=5.0)
        with pytest.raises(ConfigError, match="pure convection"):
            build_scheme(cfg, cfg.n)
        cfg = RunConfig(problem="linadv-sin4", tvb=5.0, order=8)
        with pytest.raises(ConfigError, match="4th-order flux"):
            build_scheme(cfg, cfg.n)
        with pytest.raises(ValueError):
            RunConfig(problem="linadv-sin4", integrator="rk9")
        for problem in ("nope", "pme-1d-m7", "pme-1d-mx"):
            with pytest.raises(ValueError, match="unknown problem"):
                RunConfig(problem=problem)

    @pytest.mark.parametrize("problem", ["2d-linadv", "dirichlet-convdiff",
                                         "inflow-burgers", "pme-1d"])
    def test_dx2_scale_rejected_where_it_changes_nothing(self, problem):
        with pytest.raises(ValueError, match="dx2"):
            RunConfig(problem=problem, dt_scale="dx2")

    @pytest.mark.parametrize("flag", ["alpha1", "alpha2"])
    def test_family_parameter_accepted_at_order_6(self, flag):
        cfg = RunConfig(problem="linadv-sin4", order=6, n=20, **{flag: 0.4})
        build_scheme(cfg, cfg.n)

    def test_tvb_rejected_on_2d_problems(self):
        with pytest.raises(ValueError, match="periodic 1D"):
            RunConfig(problem="2d-linadv", tvb=5.0)

    @pytest.mark.parametrize("p", [-1.0, float("nan")])
    def test_negative_tvb_threshold_rejected(self, p):
        cfg = RunConfig(problem="linadv-step", n=20, T=0.01, tvb=p)
        with pytest.raises(ConfigError, match="TVB threshold"):
            build_scheme(cfg, cfg.n)

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "problem = linadv-step\n"
            "order = 4\n"
            "integrator = ms4\n"
            "bp-limiter = true\n"
            "tvb = 5\n"
            "N = 50\n"
            "T = 0.5\n")
        values = parse_config_file(str(cfg))
        assert values["problem"] == "linadv-step"
        assert values["bp_limiter"] == "true"

    def test_cli_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = linadv-sin4\nN = 20\nT = 0.05\nintegrator = fe\n")
        assert main(["solve", "--config", str(cfg), "--N", "24"]) == 0
        out = capsys.readouterr().out
        assert "N=24" in out


class TestRunSingle:
    def test_metadata_and_bounds(self, tmp_path):
        cfg = RunConfig(problem="linadv-step", order=4, integrator="ms4", n=50,
                        T=0.5, bp_limiter=True, tvb=5.0, out=str(tmp_path))
        result, path = run_single(cfg)
        assert result["min_u"] >= -1e-12
        assert result["max_u"] <= 1 + 1e-12
        text = path.read_text()
        assert text.startswith("# problem: linadv-step")
        assert "# limiter_modified_total:" in text
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "x,u,u_exact"

    def test_unlimited_run_documents_overshoot(self):
        cfg = RunConfig(problem="linadv-step", order=4, integrator="ms4", n=50,
                        T=0.5, bp_limiter=False)
        result, _ = run_single(cfg)
        assert result["min_u"] < 0.0

    def test_reproducible_csv(self, tmp_path):
        cfg = RunConfig(problem="linadv-sin4", order=4, integrator="ms4", n=24,
                        T=0.2, bp_limiter=True, out=str(tmp_path / "a"))
        _, path_a = run_single(cfg)
        cfg_b = RunConfig(problem="linadv-sin4", order=4, integrator="ms4", n=24,
                          T=0.2, bp_limiter=True, out=str(tmp_path / "b"))
        _, path_b = run_single(cfg_b)
        assert path_a.read_bytes() == path_b.read_bytes()


def per_row_csv(config, result) -> bytes:
    """The solution CSV as formatted one f-string per grid point."""
    problem, scheme, state = result["problem"], result["scheme"], result["state"]
    rep = result["report"]
    extra = {
        "N": result["n"],
        "dt": f"{result['dt']:.16e}",
        "steps": result["steps"],
        "min_u": f"{result['min_u']:.16e}",
        "max_u": f"{result['max_u']:.16e}",
        "conservation_drift": f"{result['conservation']:.16e}",
        "limiter_modified_total": rep.modified_count,
        "limiter_max_displacement": f"{rep.max_displacement:.16e}",
        "limiter_sawtooth_sets": rep.sawtooth_count,
    }
    buf = io.StringIO()
    for line in _meta_lines(config, extra):
        buf.write(line + "\r\n")
    exact = result["exact"]
    if isinstance(problem, Problem2D):
        xx, yy = scheme.grid()
        buf.write("x,y,u" + (",u_exact" if exact is not None else "") + "\r\n")
        for i in range(state.shape[0]):
            for j in range(state.shape[1]):
                row = f"{xx[i, j]:.16e},{yy[i, j]:.16e},{state[i, j]:.16e}"
                if exact is not None:
                    row += f",{exact[i, j]:.16e}"
                buf.write(row + "\r\n")
    else:
        (x,) = scheme.grid()
        buf.write("x,u" + (",u_exact" if exact is not None else "") + "\r\n")
        for i in range(state.size):
            row = f"{x[i]:.16e},{state[i]:.16e}"
            if exact is not None:
                row += f",{exact[i]:.16e}"
            buf.write(row + "\r\n")
    return buf.getvalue().encode("ascii")


class TestSolutionCsv:
    @pytest.mark.parametrize("problem,n", [("linadv-sin4", 24), ("dirichlet-convdiff", 30),
                                           ("2d-linadv", 10), ("2d-pme-m3", 12)])
    def test_bytes_match_per_row_writer(self, tmp_path, problem, n):
        cfg = RunConfig(problem=problem, order=4, integrator="ms4", n=n, T=1e-3,
                        bp_limiter=True, out=str(tmp_path))
        result = run_level(cfg, n)
        rng = np.random.default_rng(n)
        odd = rng.normal(size=result["state"].shape) * 10.0 ** rng.integers(
            -300, 300, size=result["state"].shape)
        flat = odd.reshape(-1)
        flat[:6] = [0.0, -0.0, 5e-324, -2.2e-308, 1.0, -1e300]
        # with and without u_exact, solver output and awkward values
        # (signed zeros, subnormals, extreme exponents, Fortran order)
        variants = [result, {**result, "exact": None},
                    {**result, "state": odd, "exact": odd[::-1].copy()},
                    {**result, "state": np.asfortranarray(odd), "exact": None}]
        for k, res in enumerate(variants):
            cfg_k = replace(cfg, out=str(tmp_path / str(k)))
            path = _write_single_csv(cfg_k, res)
            assert path.read_bytes() == per_row_csv(cfg_k, res)


class TestStudy:
    def test_rows_and_csv(self, tmp_path):
        cfg = RunConfig(problem="linadv-sin4", order=4, integrator="ms4",
                        T=0.25, bp_limiter=True, refine=(20, 40),
                        out=str(tmp_path))
        rows, path = run_convergence_study(cfg)
        assert [r.n for r in rows] == [20, 40]
        assert rows[0].l1_order is None
        assert rows[1].l1_order == pytest.approx(4.0, abs=1.0)
        text = path.read_bytes().decode("ascii")
        lines = text.split("\r\n")
        assert lines[0].startswith("# problem:")
        header = [l for l in lines if l and not l.startswith("#")][0]
        assert header.split(",")[0] == "N"

    def test_reproducible_csv(self, tmp_path):
        # wall times stay in the printed table, out of the file
        paths = []
        for sub in ("a", "b"):
            cfg = RunConfig(problem="linadv-sin4", order=4, integrator="ms4",
                            T=0.1, bp_limiter=True, refine=(16, 32),
                            out=str(tmp_path / sub))
            rows, path = run_convergence_study(cfg)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert "sec" in format_study_table(rows)

    def test_constant_data_zero_errors(self, monkeypatch):
        # a constant profile is a fixed point: errors vanish identically
        from compactbp.limiters import Bounds
        from compactbp.schemes1d import Problem1D
        import compactbp.harness as harness
        const = Problem1D(name="const", x_lo=0.0, x_hi=1.0, bounds=Bounds(0, 1),
                          initial=lambda x: 0.5 + 0 * x, flux=lambda u: u,
                          max_fprime=1.0, exact=lambda x, t: 0.5 + 0 * x,
                          default_T=0.1)
        orig = harness.builtin
        monkeypatch.setattr(harness, "builtin",
                            lambda pid: const if pid == "const" else orig(pid))
        cfg = RunConfig(problem="const", refine=(10, 20), T=0.1)
        rows, _ = run_convergence_study(cfg)
        assert rows[0].l1_error <= 1e-13
        assert rows[1].l1_error <= 1e-13

    def test_reference_fallback_labelled(self, tmp_path):
        # 2d porous medium has no closed-form reference: the study compares
        # against a 4x finer self-run and says so in the metadata
        cfg = RunConfig(problem="2d-pme-m3", order=4, integrator="ms4",
                        T=0.002, bp_limiter=True, refine=(6, 8),
                        out=str(tmp_path))
        rows, path = run_convergence_study(cfg)
        assert all(np.isfinite(r.l1_error) for r in rows)
        assert "# errors_against: reference-4x-self-run" in path.read_text()

    def test_failure_records_offending_level(self):
        cfg = RunConfig(problem="linadv-sin4", refine=(2, 40), T=0.05)
        with pytest.raises(RuntimeError, match="N=2"):
            run_convergence_study(cfg)


class TestCli:
    def test_study_command(self, tmp_path, capsys):
        code = main(["study", "--problem", "linadv-sin4", "--order", "4",
                     "--integrator", "ms4", "--refine", "16,32", "--T", "0.1",
                     "--bp-limiter", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "L1 error" in out
        assert (tmp_path / "linadv-sin4_study.csv").exists()

    def test_missing_problem_errors(self):
        with pytest.raises(SystemExit):
            main(["solve", "--N", "10"])

    def test_dt_scale_flag(self, capsys):
        code = main(["solve", "--problem", "linadv-sin4-half", "--order", "8",
                     "--integrator", "ms4", "--N", "10", "--T", "0.05",
                     "--dt-scale", "dx2"])
        assert code == 0

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--problem", "dirichlet-convdiff", "--N", "2", "--T", "0.01"],
         "dirichlet-convdiff needs N >= 3"),
        (["solve", "--problem", "linadv-step", "--N", "20", "--tvb", "-1"],
         "TVB threshold p must be nonnegative"),
        (["solve", "--problem", "2d-linadv", "--dt-scale", "dx2"], "dx2"),
        (["study", "--problem", "linadv-sin4", "--refine", "2,40", "--T", "0.05"],
         "failed at N=2: linadv-sin4 needs N >= 3"),
        (["solve", "--problem", "linadv-sin4", "--N", "0"], "got N = 0"),
        (["solve", "--problem", "linadv-sin4", "--N", "20", "--T", "-1"], "got T = -1.0"),
        (["solve", "--problem", "linadv-sin4", "--N", "20", "--T", "0"], "got T = 0.0"),
        (["solve", "--problem", "linadv-sin4", "--N", "20", "--T", "nan"], "got T = nan"),
        (["study", "--problem", "linadv-sin4", "--refine", "0,20", "--T", "0.05"],
         "got N = 0"),
        *((["solve", "--problem", "linadv-sin4", "--order", order, "--N", "20",
            "--T", "0.1", f"--{flag}", "0.4"], f"{flag} selects a 6th-order scheme")
          for flag in ("alpha1", "alpha2") for order in ("4", "8")),
    ])
    def test_bad_input_is_one_line_on_stderr(self, capsys, argv, message):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and message in out.err
        assert "Traceback" not in out.err

    def test_errors_while_stepping_keep_their_traceback(self, monkeypatch):
        from compactbp.timeint import SspIntegrator

        def failing_step(*args, **kwargs):
            raise ValueError("raised while stepping")

        monkeypatch.setattr(SspIntegrator, "advance", failing_step)
        with pytest.raises(ValueError, match="raised while stepping"):
            main(["solve", "--problem", "linadv-sin4", "--N", "10", "--T", "0.01"])

    def test_unknown_problem_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = nope\nN = 10\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: unknown problem 'nope'\n"

    # the last case is a known key whose value names no METHODS row
    @pytest.mark.parametrize("line, message", [
        ("foo = 10", "unknown key 'foo'"),
        ("config = x", "unknown key 'config'"),
        ("integrator = rk9", "unknown method 'rk9'"),
    ], ids=["foo = 10", "config = x", "integrator = rk9"])
    def test_unknown_key_in_config_file(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = linadv-sin4\n{line}\n")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bare_tvb_flag_defaults_to_five(self, capsys):
        code = main(["solve", "--problem", "linadv-step", "--N", "24",
                     "--T", "0.1", "--bp-limiter", "--tvb"])
        assert code == 0
        assert "min(u)" in capsys.readouterr().out
