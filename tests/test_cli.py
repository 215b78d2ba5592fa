import json
import time

import pytest

from fmtri import cli
from fmtri.cache import lattice_from_doc, lattice_to_doc, load_or_build_lattice
from fmtri.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, main
from fmtri.errors import InvariantViolation
from fmtri.ftriangle import f_triangle
from fmtri.weyl import m_triangle, nc_lattice

PAPER_A3_TEX = """\\begin{bmatrix}
1&3&3&1\\\\
6&8&3\\\\
10&5\\\\
5
\\end{bmatrix}
"""


def run_cli(capsys, *argv):
    # explicit redirection so the tests also work under pytest -s
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out_buf, err_buf = io.StringIO(), io.StringIO()
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        code = main(list(argv))
    run_cli.last_err = err_buf.getvalue()
    return code, out_buf.getvalue()


class TestFTriangleCommand:
    def test_a3_tex_matches_reference_layout(self, capsys):
        code, out = run_cli(capsys, "ftriangle", "A3", "--format", "tex")
        assert code == EXIT_OK
        assert out.split() == PAPER_A3_TEX.split()  # bit-for-bit modulo whitespace
        assert out == PAPER_A3_TEX

    def test_a1_json_payload_shape(self, capsys):
        code, out = run_cli(capsys, "ftriangle", "A1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["payload"] == {"n": 1, "f": [[1, 1], [1]]}
        assert doc["schema_version"] == 1

    def test_product_spec(self, capsys):
        code, out = run_cli(capsys, "ftriangle", "A2xA1")
        assert code == EXIT_OK
        doc = json.loads(out)
        prod = f_triangle("A2xA1")
        assert doc["payload"]["f"][0] == [prod.data.coeff(0, l) for l in range(4)]
        assert doc["spec"] == "A2xA1"

    def test_unknown_type_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "ftriangle", "H3")
        assert code == EXIT_USAGE
        assert "family letter" in run_cli.last_err or "admissible" in run_cli.last_err

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "ftriangle", "A2", "--format", "csv")
        assert code == EXIT_OK
        assert out == "1,2,1\n3,2\n2\n"


class TestFVectorCommand:
    def test_a3(self, capsys):
        code, out = run_cli(capsys, "fvector", "A3")
        payload = json.loads(out)["payload"]
        assert code == EXIT_OK
        assert payload["f"] == [1, 9, 21, 14]
        assert payload["f_positive"] == [1, 6, 10, 5]
        assert payload["f_natural"] == [0, 1, 5, 5]


class TestMTriangleCommand:
    def test_a2(self, capsys):
        code, out = run_cli(capsys, "mtriangle", "A2")
        payload = json.loads(out)["payload"]
        assert code == EXIT_OK
        assert payload["m"] == [[1, 0, 0], [-3, 3, 0], [2, -3, 1]]

    def test_coxeter_order_flag(self, capsys):
        code, out = run_cli(capsys, "mtriangle", "A3", "--coxeter-order", "3,2,1")
        payload = json.loads(out)["payload"]
        assert code == EXIT_OK
        assert payload["coxeter_order"] == [3, 2, 1]
        assert payload["m"] == [
            [m_triangle(nc_lattice("A3")).coeff(i, j) for j in range(4)] for i in range(4)
        ]

    def test_bad_order_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "mtriangle", "A3", "--coxeter-order", "1,2")
        assert code == EXIT_USAGE


class TestInvariantsCommand:
    def test_a3(self, capsys):
        code, out = run_cli(capsys, "invariants", "A3")
        payload = json.loads(out)["payload"]
        assert code == EXIT_OK
        assert payload["cardinality"] == 14
        assert payload["mobius"] == -5
        assert payload["h_vector"] == [1, 6, 6, 1]
        assert payload["components"][0] == {"type": "A3", "h": 4, "exponents": [1, 2, 3]}

    def test_a1(self, capsys):
        code, out = run_cli(capsys, "invariants", "A1")
        payload = json.loads(out)["payload"]
        assert payload["cardinality"] == 2 and payload["mobius"] == -1

    def test_g2(self, capsys):
        code, out = run_cli(capsys, "invariants", "G2")
        payload = json.loads(out)["payload"]
        assert payload["cardinality"] == 8 and payload["mobius"] == 5


class TestVerifyCommand:
    def test_a3_exits_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "A3")
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["verified"] is True

    def test_b2_sides(self, capsys):
        code, out = run_cli(capsys, "verify", "B2")
        payload = json.loads(out)["payload"]
        assert code == EXIT_OK
        expected = [[1, 4, 1], [4, 4, 0], [3, 0, 0]]
        assert payload["lhs"] == expected and payload["rhs"] == expected

    def test_timeout_budget(self, capsys):
        code, out = run_cli(capsys, "verify", "A9", "--max-seconds", "0.5")
        assert code == EXIT_TIMEOUT
        assert json.loads(out)["payload"]["timeout"] is True

    def test_timeout_partial_report_csv(self, capsys):
        code, out = run_cli(capsys, "verify", "A9", "--max-seconds", "0.5", "--format", "csv")
        assert code == EXIT_TIMEOUT
        assert "timeout,true" in out

    def test_verified_exit_code_mapping(self):
        from fmtri.cli import _verify_payload

        payload, code = _verify_payload("A2", None, None, None, False)
        assert code == EXIT_OK and payload["verified"]

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # no real spec mismatches, so doctor the comparison
        import fmtri.cli as cli_mod
        from fmtri.conjecture import verify_conjecture

        real = verify_conjecture(nc_lattice("A2"))
        from dataclasses import replace

        fake = replace(real, verified=False, mismatches=((0, 0, 1, 2),))
        monkeypatch.setattr(cli_mod, "verify_conjecture", lambda *a, **k: fake)
        code, out = run_cli(capsys, "verify", "A2")
        assert code == EXIT_MISMATCH
        assert json.loads(out)["payload"]["mismatches"] == [[0, 0, 1, 2]]

    def test_timings_flag(self, capsys):
        _, without = run_cli(capsys, "verify", "A2")
        _, with_t = run_cli(capsys, "verify", "A2", "--timings")
        assert "timings" not in json.loads(without)["payload"]
        assert "timings" in json.loads(with_t)["payload"]

    def test_timings_include_the_lattice_lookup(self, capsys, monkeypatch):
        real = cli.load_or_build_lattice

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "load_or_build_lattice", slow)
        _, out = run_cli(capsys, "verify", "A2", "--timings")
        timings = json.loads(out)["payload"]["timings"]
        assert set(timings) == {"f_triangle", "lattice", "compare"}
        assert timings["lattice"] >= 0.05

    @pytest.mark.parametrize("argv", [("verify", "A2"), ("sweep", "A1", "A2")], ids=["verify", "sweep"])
    def test_internal_error_exit_code(self, capsys, monkeypatch, argv):
        def broken(*args, **kwargs):
            raise InvariantViolation("doctored lattice")

        monkeypatch.setattr(cli, "load_or_build_lattice", broken)
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_INTERNAL
        assert out == ""
        assert run_cli.last_err == "error: internal: doctored lattice\n"


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", "A1", "A2", "B2", "A1xA1")
        assert code == EXIT_OK
        payload = json.loads(out)["payload"]
        assert payload["all_verified"] is True
        assert [r["spec"] for r in payload["results"]] == ["A1", "A2", "B2", "A1xA1"]

    def test_sweep_csv(self, capsys):
        code, out = run_cli(capsys, "sweep", "A1", "A2", "--format", "csv")
        assert code == EXIT_OK
        assert out == "A1,true\nA2,true\n"

    def test_sweep_timeout_exit(self, capsys):
        code, out = run_cli(capsys, "sweep", "A1", "A9", "--max-seconds", "0.5")
        assert code == EXIT_TIMEOUT
        payload = json.loads(out)["payload"]
        assert payload["results"][1]["timeout"] is True

    def test_sweep_parallel_jobs(self, capsys):
        code, out = run_cli(capsys, "sweep", "A1", "A2", "B2", "--jobs", "2")
        assert code == EXIT_OK
        assert json.loads(out)["payload"]["all_verified"] is True


class TestDeterminismAndCache:
    def test_repeat_runs_byte_identical(self, capsys):
        _, out1 = run_cli(capsys, "verify", "A3")
        _, out2 = run_cli(capsys, "verify", "A3")
        assert out1 == out2

    def test_cold_then_warm_cache_identical(self, capsys, tmp_path):
        args = ("verify", "B3", "--cache-dir", str(tmp_path))
        code1, cold = run_cli(capsys, *args)
        assert code1 == EXIT_OK
        assert any(p.name.startswith("lattice__B3") for p in tmp_path.iterdir())
        code2, warm = run_cli(capsys, *args)
        assert code2 == EXIT_OK
        assert cold == warm

    def test_lattice_cache_round_trip(self, tmp_path):
        # the Moebius rows carry the order relation, so a loaded lattice is
        # the same value as a fresh one
        for s in ["A3", "B3", "D4", "A2xA1"]:
            lat = nc_lattice(s)
            assert lattice_from_doc(lattice_to_doc(lat)) == lat

    def test_cached_lattice_file_reused(self, tmp_path):
        lat1 = load_or_build_lattice("A2", cache_dir=tmp_path)
        path = next(tmp_path.iterdir())
        stamp = path.stat().st_mtime_ns
        lat2 = load_or_build_lattice("A2", cache_dir=tmp_path)
        assert path.stat().st_mtime_ns == stamp
        assert lat2.mobius_rows == lat1.mobius_rows

    def test_truncated_lattice_file_is_rebuilt(self, capsys, tmp_path):
        _, cold = run_cli(capsys, "verify", "A3")
        args = ("verify", "A3", "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        path = next(tmp_path.iterdir())
        path.write_bytes(path.read_bytes()[:200])
        code, out = run_cli(capsys, *args)
        assert code == EXIT_OK
        assert out == cold
        assert lattice_from_doc(json.loads(path.read_text())) == nc_lattice("A3")

    def test_lattice_file_of_another_spec_is_rebuilt(self, tmp_path):
        # a parseable file that names the wrong spec is a miss, not a verdict
        load_or_build_lattice("A3", cache_dir=tmp_path)
        path = next(tmp_path.iterdir())
        path.write_text(json.dumps(lattice_to_doc(nc_lattice("A2xA1"))))
        assert load_or_build_lattice("A3", cache_dir=tmp_path) == nc_lattice("A3")
        assert lattice_from_doc(json.loads(path.read_text())) == nc_lattice("A3")

    def test_lattice_file_failing_the_invariants_is_rebuilt(self, tmp_path):
        load_or_build_lattice("A3", cache_dir=tmp_path)
        path = next(tmp_path.iterdir())
        doc = json.loads(path.read_text())
        doc["mobius_rows"][0][-1][1] += 1  # mu(0, 1) off by one
        path.write_text(json.dumps(doc))
        assert load_or_build_lattice("A3", cache_dir=tmp_path) == nc_lattice("A3")
        assert lattice_from_doc(json.loads(path.read_text())) == nc_lattice("A3")


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_tex_not_defined_for_invariants(self, capsys):
        assert run_cli(capsys, "invariants", "A2", "--format", "tex")[0] == EXIT_USAGE

    @pytest.mark.parametrize("command", ["ftriangle", "fvector", "invariants"])
    def test_cache_dir_only_on_lattice_commands(self, capsys, tmp_path, command):
        assert run_cli(capsys, command, "A3", "--cache-dir", str(tmp_path))[0] == EXIT_USAGE

    @pytest.mark.parametrize("bad", ["A0", "D2", "E5", "XY"])
    def test_bad_specs(self, capsys, bad):
        assert run_cli(capsys, "ftriangle", bad)[0] == EXIT_USAGE
