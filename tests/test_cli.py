import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import fmtri
from fmtri import cache, cli, conjecture, ftriangle, weyl
from fmtri.cache import lattice_from_doc, load_or_build_lattice
from fmtri.cartan import parse_spec
from fmtri.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, main
from fmtri.errors import InvariantViolation
from fmtri.ftriangle import f_triangle
from fmtri.weyl import nc_lattice

from oracles import poly_from_terms, terms


def run_cli(capsys, *argv):
    # explicit redirection so the tests also work under pytest -s
    from contextlib import redirect_stderr, redirect_stdout

    out_buf, err_buf = io.StringIO(), io.StringIO()
    with redirect_stdout(out_buf), redirect_stderr(err_buf):
        code = main(list(argv))
    run_cli.last_err = err_buf.getvalue()
    return code, out_buf.getvalue()


class TestFTriangleCommand:
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
        prod = f_triangle(parse_spec("A2xA1"))
        assert doc["payload"]["f"][0] == list(prod[0])
        assert doc["spec"] == "A2xA1"

    def test_unknown_type_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "ftriangle", "H3")
        assert code == EXIT_USAGE
        assert "family letter" in run_cli.last_err or "admissible" in run_cli.last_err

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "ftriangle", "A2", "--format", "csv")
        assert code == EXIT_OK
        assert out == "1,2,1\n3,2\n2\n"


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
        assert payload["m"] == list(map(list, nc_lattice(parse_spec("A3")).m_triangle))

    def test_bad_order_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "mtriangle", "A3", "--coxeter-order", "1,2")
        assert code == EXIT_USAGE
        assert run_cli.last_err == "error: Coxeter order 1,2 is not a permutation of 1..3\n"
        code, _ = run_cli(capsys, "mtriangle", "A3", "--coxeter-order", "1,two,3")
        assert code == EXIT_USAGE
        assert run_cli.last_err == "error: --coxeter-order '1,two,3' is not a comma-separated permutation\n"


class TestInvariantsCommand:
    def test_a1(self, capsys):
        code, out = run_cli(capsys, "invariants", "A1")
        payload = json.loads(out)["payload"]
        assert payload["cardinality"] == 2 and payload["mobius"] == -1

    def test_g2(self, capsys):
        code, out = run_cli(capsys, "invariants", "G2")
        payload = json.loads(out)["payload"]
        assert payload["cardinality"] == 8 and payload["mobius"] == 5


class TestVerifyCommand:
    def test_b2_sides(self, capsys):
        code, out = run_cli(capsys, "verify", "B2")
        payload = json.loads(out)["payload"]
        assert code == EXIT_OK
        expected = [[1, 4, 1], [4, 4, 0], [3, 0, 0]]
        assert payload["lhs"] == expected and payload["rhs"] == expected

    # a zero budget fires at the first check, on any host
    def test_timeout_budget(self, capsys):
        code, out = run_cli(capsys, "verify", "A9", "--max-seconds", "0")
        assert code == EXIT_TIMEOUT
        assert json.loads(out)["payload"]["timeout"] is True

    def test_timeout_partial_report_csv(self, capsys):
        code, out = run_cli(capsys, "verify", "A9", "--max-seconds", "0", "--format", "csv")
        assert code == EXIT_TIMEOUT
        assert out == "verified,false\ntimeout,true\n"

    def test_timeout_bounds_the_stages_before_the_search(self, capsys):
        # A60 has 1830 roots: its root closure, E_c beta_t per root and the z
        # masks take seconds before the search of [1, c] starts
        t0 = time.monotonic()
        code, out = run_cli(capsys, "verify", "A60", "--max-seconds", "0.5")
        assert code == EXIT_TIMEOUT
        assert time.monotonic() - t0 < 3
        assert json.loads(out)["payload"]["timeout"] is True

    def test_timeout_bounds_the_lattice_pass(self, capsys):
        # D9 (|L| = 35750) takes about 2 s; its search, the holders of each
        # bit and the pass over the down-sets each check the budget once per
        # element
        t0 = time.monotonic()
        code, out = run_cli(capsys, "verify", "D9", "--max-seconds", "0.3")
        assert code == EXIT_TIMEOUT
        assert time.monotonic() - t0 < 1.5
        assert json.loads(out)["payload"]["timeout"] is True

    def test_timeout_bounds_a_large_rank(self, capsys):
        # only the dense 2000 x 2000 Cartan matrix, its columns and the unit
        # vectors come before the first budget check: the whole call takes
        # about 0.35 s in process on a 2-core Xeon
        t0 = time.monotonic()
        code, out = run_cli(capsys, "verify", "A2000", "--max-seconds", "0.2")
        assert code == EXIT_TIMEOUT
        assert time.monotonic() - t0 < 1
        assert json.loads(out)["payload"]["timeout"] is True

    def test_verified_exit_code_mapping(self):
        from fmtri.cli import _verify_payload

        payload, code = _verify_payload(parse_spec("A2"), None, None, None, False)
        assert code == EXIT_OK and payload["verified"]

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # no real spec mismatches, so doctor the F side: 1 + 2x + y for A1
        wrong = poly_from_terms(1, (0, 0, 1), (1, 0, 2), (0, 1, 1))
        monkeypatch.setattr(cli, "f_triangle", lambda spec: wrong)
        code, out = run_cli(capsys, "verify", "A1")
        assert code == EXIT_MISMATCH
        payload = json.loads(out)["payload"]
        assert payload["mismatches"] == [[0, 1, 2, 1], [1, 0, 2, 1]]
        # F(x, 0) = 1 + 2x counts 2 positive clusters, not 1, F(-1, y) = y - 1,
        # and F(x, x) = 1 + 3x gives the h-vector (1, 2), not A1's ranks (1, 1)
        failing = {k for k, ok in payload["evidence"].items() if not ok}
        assert failing == {"positive_cluster_count_match", "corner_specializations", "h_vector_match"}
        code, out = run_cli(capsys, "verify", "A1", "--format", "csv")
        assert code == EXIT_MISMATCH
        assert out.startswith("verified,false\n")
        assert [line for line in out.splitlines() if line.startswith("mismatch,")] == [
            "mismatch,0,1,2,1",
            "mismatch,1,0,2,1",
        ]

    @pytest.mark.parametrize(
        "flag", ["h_vector_match", "positive_cluster_count_match", "m_self_dual", "corner_specializations"]
    )
    def test_each_evidence_flag_can_fail(self, capsys, monkeypatch, flag):
        # a real A3 lattice with one value doctored: an atom moved to rank 2
        # leaves M alone; M(3, 0) = mu(1, c) is its own self-dual partner,
        # M(2, 0) is partnered with M(3, 1), and M(2, 1) with itself.  Every
        # M edit also moves a column sum of M(1, y) = y^3, and the rhs
        lat = nc_lattice(parse_spec("A3"))
        if flag == "h_vector_match":
            levels = lat.levels
            lat = lat._replace(levels=(levels[0], levels[1][1:], levels[1][:1] + levels[2]) + levels[3:])
        else:
            k, l = {"positive_cluster_count_match": (3, 0), "m_self_dual": (2, 0)}.get(flag, (2, 1))
            lat = lat._replace(m_triangle=poly_from_terms(3, *terms(lat.m_triangle), (k, l, 1)))
        monkeypatch.setattr(cli, "load_or_build_lattice", lambda *args, **kwargs: lat)
        code, out = run_cli(capsys, "verify", "A3")
        assert code == EXIT_MISMATCH
        payload = json.loads(out)["payload"]
        failing = {flag} if flag == "h_vector_match" else {flag, "corner_specializations"}
        assert {k for k, ok in payload["evidence"].items() if not ok} == failing
        assert payload["verified"] is (flag == "h_vector_match")

    def test_multiplicativity_can_fail(self, capsys, monkeypatch):
        # the product's own lattice stays right; the A1 component's M gains
        # an x, so only the multiplicativity evidence fails
        real = conjecture.nc_lattice

        def doctored(t, **kwargs):
            lat = real(t, **kwargs)
            if str(t) != "A1":
                return lat
            return SimpleNamespace(m_triangle=poly_from_terms(1, *terms(lat.m_triangle), (1, 0, 1)))

        monkeypatch.setattr(conjecture, "nc_lattice", doctored)
        code, out = run_cli(capsys, "verify", "A2xA1")
        assert code == EXIT_MISMATCH
        payload = json.loads(out)["payload"]
        assert payload["verified"] is True and payload["mismatches"] == []
        assert [k for k, ok in payload["evidence"].items() if not ok] == ["multiplicativity"]
        code, out = run_cli(capsys, "verify", "A2xA1", "--format", "csv")
        assert code == EXIT_MISMATCH
        assert out.startswith("verified,true\n")
        assert [line for line in out.splitlines() if line.endswith(",false")] == [
            "evidence,multiplicativity,false"
        ]

    def test_timings_flag(self, capsys):
        _, without = run_cli(capsys, "verify", "A2")
        _, with_t = run_cli(capsys, "verify", "A2", "--timings")
        assert "timings" not in json.loads(without)["payload"]
        assert "timings" in json.loads(with_t)["payload"]

    def test_timings_are_json_only(self, capsys):
        # csv has no timings row: the flag changes no byte of it
        without = run_cli(capsys, "verify", "A2", "--format", "csv")
        assert run_cli(capsys, "verify", "A2", "--timings", "--format", "csv") == without

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
        assert timings["f_triangle"] < 0.05 and timings["compare"] < 0.05

    def test_timings_time_the_f_triangle_apart_from_the_other_stages(self, capsys, monkeypatch):
        def slow(spec):
            time.sleep(0.05)
            return f_triangle(spec)

        monkeypatch.setattr(cli, "f_triangle", slow)
        _, out = run_cli(capsys, "verify", "A2", "--timings")
        timings = json.loads(out)["payload"]["timings"]
        assert timings["f_triangle"] >= 0.05
        assert timings["lattice"] < 0.05 and timings["compare"] < 0.05

    @pytest.mark.parametrize("argv", [("verify", "A2"), ("sweep", "A1", "A2")], ids=["verify", "sweep"])
    def test_internal_error_exit_code(self, capsys, monkeypatch, argv):
        def broken(*args, **kwargs):
            raise InvariantViolation("doctored lattice")

        monkeypatch.setattr(cli, "load_or_build_lattice", broken)
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_INTERNAL
        if argv[0] == "verify":
            assert out == ""
            assert run_cli.last_err == "error: internal: doctored lattice\n"
        else:
            # a sweep reports the error as each spec's entry
            results = json.loads(out)["payload"]["results"]
            assert [r["report"]["error"] for r in results] == ["internal: doctored lattice"] * 2
            assert run_cli.last_err == (
                "error: internal: A1: doctored lattice\nerror: internal: A2: doctored lattice\n"
            )

    @pytest.mark.parametrize("side", ["f", "m"])
    def test_coefficient_outside_the_support_is_an_internal_error(self, capsys, monkeypatch, side):
        # F has support k + l <= n and M has i >= j: either broken is one
        # error line, with no traceback, naming the entry
        lat = nc_lattice(parse_spec("A1"))
        if side == "f":
            monkeypatch.setattr(cli, "f_triangle", lambda spec: ((1, 1), (1, 1)))
            message = "coefficient [1][1] = 1 lies outside k + l <= 1"
        else:
            lat = lat._replace(m_triangle=((1, 1), (-1, 1)))
            message = "M-triangle coefficient m[0][1] = 1 lies outside i >= j"
        monkeypatch.setattr(cli, "load_or_build_lattice", lambda *args, **kwargs: lat)
        code, out = run_cli(capsys, "verify", "A1")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert run_cli.last_err == f"error: internal: {message}\n"

    @pytest.mark.parametrize("argv", [("verify", "A2"), ("sweep", "A1", "A2")], ids=["verify", "sweep"])
    def test_unexpected_exception_exit_code(self, capsys, monkeypatch, argv):
        # an exception the CLI does not name is an internal error, not a mismatch
        def broken(m):
            raise KeyError("boom")

        monkeypatch.setattr(conjecture, "conjecture_rhs", broken)
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_INTERNAL
        err = run_cli.last_err
        assert err.startswith("Traceback (most recent call last):\n")
        if argv[0] == "verify":
            assert out == ""
            assert err.count("Traceback") == 1
            assert err.endswith("KeyError: 'boom'\nerror: internal: KeyError: 'boom'\n")
        else:
            results = json.loads(out)["payload"]["results"]
            assert [r["report"]["error"] for r in results] == ["internal: KeyError: 'boom'"] * 2
            assert err.count("Traceback") == 2
            assert err.endswith(
                "error: internal: A1: KeyError: 'boom'\nerror: internal: A2: KeyError: 'boom'\n"
            )


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

    def test_sweep_timeout_exit(self, capsys, monkeypatch):
        # as in a fresh process: A1's lattice, if an earlier test built it,
        # would verify from the memo before a zero budget is checked
        monkeypatch.setattr(weyl, "_LATTICE_MEMO", {})
        code, out = run_cli(capsys, "sweep", "A1", "A9", "--max-seconds", "0")
        assert code == EXIT_TIMEOUT
        payload = json.loads(out)["payload"]
        assert payload["results"][1]["timeout"] is True
        code, out = run_cli(capsys, "sweep", "A1", "A9", "--max-seconds", "0", "--format", "csv")
        assert code == EXIT_TIMEOUT
        assert out == "A1,false\nA9,false\n"

    def test_internal_error_is_isolated_per_spec(self, capsys, monkeypatch):
        real = cli.load_or_build_lattice

        def broken_for_a2(spec, *args, **kwargs):
            if str(spec) == "A2":
                raise InvariantViolation("doctored lattice")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(cli, "load_or_build_lattice", broken_for_a2)
        code, out = run_cli(capsys, "sweep", "A1", "A2")
        assert code == EXIT_INTERNAL
        a1, a2 = json.loads(out)["payload"]["results"]
        assert (a1["spec"], a1["verified"]) == ("A1", True)
        assert a2 == {
            "spec": "A2",
            "verified": False,
            "timeout": False,
            "report": {"verified": False, "timeout": False, "error": "internal: doctored lattice"},
        }
        assert run_cli.last_err == "error: internal: A2: doctored lattice\n"
        code, out = run_cli(capsys, "sweep", "A1", "A2", "--format", "csv")
        assert code == EXIT_INTERNAL
        assert out == "A1,true\nA2,false\n"

    def test_jobs_1_changes_nothing(self, capsys, monkeypatch):
        # the benchmark's product_sweep passes --jobs 1: the same stdout,
        # stderr and exit code, and with an internal error both error lines
        # still follow both tracebacks
        def both(*argv):
            return run_cli(capsys, *argv), run_cli.last_err

        assert both("sweep", "A1", "A2", "--jobs", "1") == both("sweep", "A1", "A2")

        def broken(m):
            raise KeyError("boom")

        monkeypatch.setattr(conjecture, "conjecture_rhs", broken)
        (code, out), err = both("sweep", "A1", "A2")
        assert both("sweep", "A1", "A2", "--jobs", "1") == ((code, out), err)
        assert code == EXIT_INTERNAL and err.count("Traceback") == 2
        assert err.endswith(
            "KeyError: 'boom'\n"
            "error: internal: A1: KeyError: 'boom'\nerror: internal: A2: KeyError: 'boom'\n"
        )


class TestDeterminismAndCache:
    def test_lattice_cache_round_trip(self, tmp_path):
        # a lattice's file compares equal to the built lattice, which is
        # returned as it is, and the file of any other spec or order does not
        lats = [nc_lattice(parse_spec(s)) for s in ["A3", "B3", "D4", "A2xA1"]]
        lats.append(nc_lattice(parse_spec("A3"), (3, 2, 1)))
        files = []
        for i, lat in enumerate(lats):
            assert load_or_build_lattice(lat.spec, lat.coxeter_order, tmp_path / str(i)) is lat
            files.append(next((tmp_path / str(i)).iterdir()).read_bytes())
        for lat, own in zip(lats, files):
            assert lattice_from_doc(own, own, lat) is lat
            for data in files:
                if data != own:
                    with pytest.raises(ValueError):
                        lattice_from_doc(data, own, lat)

    def test_cached_lattice_file_reused(self, tmp_path):
        lat1 = load_or_build_lattice(parse_spec("A2"), cache_dir=tmp_path)
        path = next(tmp_path.iterdir())
        # version 5 files name the elements by their masks and hold their
        # ranks: no matrix, no cover, which the masks give, no rank, which is
        # the spec's, and no Moebius value
        doc = json.loads(path.read_text())
        assert path.name.endswith("__v5.json") and doc["schema_version"] == 5
        keys = ["coxeter_order", "elements", "ranks", "schema_version", "spec"]
        assert sorted(doc) == keys
        assert doc["elements"] == list(lat1.elements) and all(type(f) is int for f in lat1.elements)
        assert doc["ranks"] == list(lat1.ranks)
        stamp = path.stat().st_mtime_ns
        lat2 = load_or_build_lattice(parse_spec("A2"), cache_dir=tmp_path)
        assert path.stat().st_mtime_ns == stamp
        assert lat2 == lat1 and lat2.m_triangle == lat1.m_triangle

    @pytest.mark.parametrize(
        "edit", ["truncated", "other_spec", "mask_cleared", "mask_trade", "schema_4", "element_added"]
    )
    def test_lattice_file_that_is_not_the_builds_is_rewritten(self, capsys, tmp_path, monkeypatch, edit):
        # anything but the build's bytes is a miss, whatever the edit: the
        # output is the cold one, and the build's file replaces the edited one.
        # A file of the saved size is read and compared; any other is not read
        _, cold = run_cli(capsys, "verify", "A3")
        args = ("verify", "A3", "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        path = next(tmp_path.iterdir())
        fresh = path.read_bytes()
        doc = json.loads(fresh)
        if edit == "truncated":
            path.write_bytes(fresh[: len(fresh) // 2])
        elif edit == "other_spec":
            # a valid file, as a save writes it, of A2xA1
            run_cli(capsys, "verify", "A2xA1", "--cache-dir", str(tmp_path / "other"))
            path.write_bytes(next((tmp_path / "other").iterdir()).read_bytes())
        else:
            if edit == "mask_cleared":
                # atom 2 loses its lowest bit, and with it one of the elements
                # of rank 2 above it, so the maximal chains are one fewer
                doc["elements"][2] &= doc["elements"][2] - 1
            elif edit == "mask_trade":
                # atom 2 trades bits: 11 (0b001011) becomes 14 (0b001110).  The
                # masks then give an order isomorphic to the lattice's, with
                # the same counts and the same M, yet they are not the lattice's
                assert doc["elements"][2] == 11
                doc["elements"][2] = 14
            elif edit == "schema_4":
                # a file of another schema version is a miss even under the current name
                doc["schema_version"] = 4
            else:
                # one element more: |L| is off, and so is the size
                doc["elements"].append(0)
            # written as a save writes it, so only the edit differs from the fresh file
            path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        edited = path.read_bytes()
        assert edited != fresh
        reads, compare = [], cache.lattice_from_doc

        def read(data, own, lat):
            reads.append(data)
            return compare(data, own, lat)

        monkeypatch.setattr(cache, "lattice_from_doc", read)
        assert run_cli(capsys, *args) == (EXIT_OK, cold)
        assert path.read_bytes() == fresh
        assert reads == ([edited] if len(edited) == len(fresh) else [])

    @pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
    def test_lattice_file_gets_the_mode_the_umask_gives(self, tmp_path):
        # the mode open(path, "w") gives, not mkstemp's 0600
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            cache_dir = tmp_path / oct(umask)
            old = os.umask(umask)
            try:
                load_or_build_lattice(parse_spec("A2"), cache_dir=cache_dir)
            finally:
                os.umask(old)
            (path,) = cache_dir.iterdir()
            assert oct(path.stat().st_mode & 0o777) == oct(mode)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_fifo_at_the_lattice_file_path_is_replaced_unread(self, capsys, tmp_path):
        # opening a FIFO to read it blocks until a writer comes, which would
        # hang verify past any budget; in a child process, so a hang fails
        _, cold = run_cli(capsys, "verify", "A2")
        path = tmp_path / "lattice__A2__order_1-2__v5.json"
        os.mkfifo(path)
        src = str(Path(fmtri.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "fmtri.cli", "verify", "A2", "--cache-dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, cold, "")
        assert path.is_file()
        run_cli(capsys, "verify", "A2", "--cache-dir", str(tmp_path / "fresh"))
        assert path.read_bytes() == next((tmp_path / "fresh").iterdir()).read_bytes()

    def test_warm_hit_respects_the_time_budget(self, capsys, tmp_path, monkeypatch):
        args = ("verify", "E7", "--cache-dir", str(tmp_path))
        assert run_cli(capsys, *args)[0] == EXIT_OK
        # as in a fresh process: a hit builds the lattice, unless the memo holds it
        monkeypatch.setattr(weyl, "_LATTICE_MEMO", {})
        code, out = run_cli(capsys, *args, "--max-seconds", "0")
        assert code == EXIT_TIMEOUT
        assert json.loads(out)["payload"]["timeout"] is True

    def test_no_command_computes_the_whole_moebius_table(self, capsys, tmp_path, monkeypatch):
        def runs(cache_dir):
            verify = ("verify", "B6", "--cache-dir", str(cache_dir))
            return [run_cli(capsys, *verify), run_cli(capsys, *verify), run_cli(capsys, "mtriangle", "B6")]

        unpatched = runs(tmp_path / "unpatched")
        assert all(code == EXIT_OK for code, _ in unpatched)

        def refuse(lat):
            raise AssertionError("the whole Moebius table was computed")

        monkeypatch.setattr(weyl.NCLattice, "mobius_rows", property(refuse))
        monkeypatch.setattr(weyl, "_LATTICE_MEMO", {})
        assert runs(tmp_path / "refused") == unpatched

    def test_each_lattice_builds_its_down_sets_once(self, capsys, tmp_path, monkeypatch):
        # lattice_from_masks builds the down-sets, and one pass over them
        # gives the Moebius row and M together; it takes the closed forms
        # once.  Every run builds its lattice once, so this holds with no
        # cache dir, and with a cold or a warm one.  A command computes the
        # F-triangle of its spec once, and reads every F-side vector off it;
        # the recursion's own calls are on smaller specs, so not counted
        calls = []
        b6, real_f_triangle = parse_spec("B6"), ftriangle.f_triangle

        def f_triangle(spec):
            if spec == b6:
                calls.append("f_triangle")
            return real_f_triangle(spec)

        for module in (ftriangle, cli):
            monkeypatch.setattr(module, "f_triangle", f_triangle)

        def counted(name, real):
            def count(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return count

        derive = counted("lattice_from_masks", weyl.lattice_from_masks)
        monkeypatch.setattr(weyl, "lattice_from_masks", derive)
        monkeypatch.setattr(
            weyl, "invariant_formulas", counted("invariant_formulas", weyl.invariant_formulas)
        )

        def calls_of(*argv):
            monkeypatch.setattr(weyl, "_LATTICE_MEMO", {})
            calls.clear()
            assert run_cli(capsys, *argv)[0] == EXIT_OK
            return sorted(calls)

        once = ["invariant_formulas", "lattice_from_masks"]
        verified = ["f_triangle", *once]
        cached = ("verify", "B6", "--cache-dir", str(tmp_path))
        assert calls_of("verify", "B6") == verified
        assert calls_of(*cached) == verified
        assert any(tmp_path.iterdir())
        assert calls_of(*cached) == verified
        assert calls_of("mtriangle", "B6") == once
        for command in ("fvector", "invariants"):
            assert calls_of(command, "B6") == ["f_triangle"]


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv", [[], ["ftriangle"], ["fvector"], ["mtriangle"], ["invariants"], ["verify"], ["sweep"]]
    )
    def test_help_exits_0_with_usage_on_stdout(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--help")
        assert code == EXIT_OK
        assert out.startswith(" ".join(["usage: fmtri", *argv]) + " ")
        assert run_cli.last_err == ""

    @pytest.mark.parametrize("command", ["invariants", "verify", "sweep"])
    def test_tex_not_defined_for(self, capsys, tmp_path, command):
        # the parser refuses it, before a lattice is built or a lattice file written
        cache = ("--cache-dir", str(tmp_path)) if command == "verify" else ()
        assert run_cli(capsys, command, "A2", "--format", "tex", *cache)[0] == EXIT_USAGE
        assert "invalid choice: 'tex'" in run_cli.last_err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["ftriangle", "fvector", "invariants", "mtriangle", "sweep"])
    def test_cache_dir_only_on_verify(self, capsys, tmp_path, command):
        # an unrecognized argument, refused before any work, and nothing is written
        cache_dir = tmp_path / "cache"
        assert run_cli(capsys, command, "A3", "--cache-dir", str(cache_dir)) == (EXIT_USAGE, "")
        assert "unrecognized arguments: --cache-dir" in run_cli.last_err
        assert not cache_dir.exists()

    @pytest.mark.parametrize("kind", ["file", "under_a_file", "dangling_link", "under_a_dangling_link"])
    def test_cache_dir_that_is_a_file_is_usage_error(self, capsys, tmp_path, monkeypatch, kind):
        # refused before any lattice is looked up, with one line and no
        # traceback, and no directory is made on the way; a symlink to a
        # missing path is not a directory either
        path = tmp_path / "file"
        if kind.endswith("link"):
            path.symlink_to(tmp_path / "missing")
        else:
            path.write_text("")
        under = kind.startswith("under")
        arg = path / "sub" / "dir" if under else path

        def lookup(*_args, **_kwargs):
            raise AssertionError("looked up a lattice")

        monkeypatch.setattr(cli, "load_or_build_lattice", lookup)
        assert run_cli(capsys, "verify", "A2", "--cache-dir", str(arg)) == (EXIT_USAGE, "")
        where = f"is under {str(path)!r}, which exists" if under else "exists"
        message = f"error: --cache-dir {str(arg)!r} {where} and is not a directory\n"
        assert run_cli.last_err == message
        assert list(tmp_path.iterdir()) == [path]
        assert path.is_symlink() or path.read_text() == ""

    def test_lattice_file_that_cannot_be_written_is_usage_error(self, capsys, tmp_path):
        # a directory at the lattice file's path: the rename onto it fails,
        # which is one line naming the file and no traceback
        path = tmp_path / "lattice__A2__order_1-2__v5.json"
        path.mkdir()
        assert run_cli(capsys, "verify", "A2", "--cache-dir", str(tmp_path)) == (EXIT_USAGE, "")
        message = f"error: cannot write the lattice file {str(path)!r}: Is a directory\n"
        assert run_cli.last_err == message
        assert list(tmp_path.iterdir()) == [path] and not any(path.iterdir())

    def test_empty_cache_dir_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # '' would mean the current directory: refused before any lattice
        # is looked up, with one line, and no file is written there
        monkeypatch.chdir(tmp_path)

        def lookup(*_args, **_kwargs):
            raise AssertionError("looked up a lattice")

        monkeypatch.setattr(cli, "load_or_build_lattice", lookup)
        assert run_cli(capsys, "verify", "A2", "--cache-dir", "") == (EXIT_USAGE, "")
        assert run_cli.last_err == "error: --cache-dir '' is empty and names no directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("budget", ["nan", "-5"])
    def test_bad_time_budget_is_usage_error(self, capsys, command, budget):
        # nan would never expire and a negative budget would expire at once
        assert run_cli(capsys, command, "A1", "--max-seconds", budget)[0] == EXIT_USAGE
        assert f"invalid time budget '{budget}'" in run_cli.last_err

    @pytest.mark.parametrize("jobs", ["0", "-3", "two", "1.5", "2", "10000"])
    def test_bad_job_count_is_usage_error(self, capsys, monkeypatch, jobs):
        # only --jobs 1 parses; anything else is refused before any work
        def lookup(*_args, **_kwargs):
            raise AssertionError("looked up a lattice")

        monkeypatch.setattr(cli, "load_or_build_lattice", lookup)
        assert run_cli(capsys, "sweep", "A1", "A2", "--jobs", jobs) == (EXIT_USAGE, "")
        assert "error: argument --jobs: invalid " in run_cli.last_err

    @pytest.mark.parametrize("bad", ["A0", "D2", "E5", "XY"])
    def test_bad_specs(self, capsys, bad):
        assert run_cli(capsys, "ftriangle", bad)[0] == EXIT_USAGE

    @pytest.mark.parametrize("bad", ["A0", "D2", "E5", "XY"])
    def test_sweep_parses_every_spec_before_any_work(self, capsys, monkeypatch, bad):
        # a bad spec after a good one is refused before the good one is verified
        def lookup(*_args, **_kwargs):
            raise AssertionError("looked up a lattice")

        monkeypatch.setattr(cli, "load_or_build_lattice", lookup)
        assert run_cli(capsys, "sweep", "A1", bad) == (EXIT_USAGE, "")
        assert run_cli.last_err.startswith("error: ")


class TestStartup:
    def test_import_loads_no_dataclasses_inspect_or_traceback(self):
        # which modules load, not how long they take: start-up pays for
        # every module on the import path of the CLI
        script = (
            "import sys; before = set(sys.modules); import fmtri.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        src = str(Path(fmtri.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        loaded = set(done.stdout.split())
        assert "fmtri.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "traceback", "fractions", "decimal"})


def run_module(*argv, stdout=subprocess.PIPE, unbuffered=True, args=None):
    """``python -m fmtri.cli *argv`` in a fresh process, which ends through
    cli.run()'s os._exit, not through a SystemExit that a caller of main sees;
    ``args`` replaces the interpreter's own arguments."""
    src = str(Path(fmtri.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, *(args or ["-m", "fmtri.cli"]), *argv]
    return subprocess.run(cmd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


class TestExitPath:
    def test_verified_output_equals_mains(self, capsys):
        done = run_module("verify", "A2")
        expected = run_cli(capsys, "verify", "A2")[1]
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize(
        "argv, code", [(["verify", "H3"], EXIT_USAGE), (["verify", "A9", "--max-seconds", "0"], EXIT_TIMEOUT)]
    )
    def test_exit_codes_pass_through(self, argv, code):
        assert run_module(*argv).returncode == code

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv", [["verify", "A2"], ["sweep", "A1", "A2", "A3", "A4", "A5", "A6", "A7"], ["--help"]]
    )
    def test_closed_pipe_is_one_line_and_exit_120(self, capsys, argv, unbuffered):
        # a pipe whose read end is closed: the write fails unbuffered, the
        # flush buffered; the sweep's 13 kB are more than the buffer holds,
        # so its write fails in both modes
        if argv[0] == "sweep":
            assert len(run_cli(capsys, *argv)[1]) > io.DEFAULT_BUFFER_SIZE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_module(*argv, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        message = "error: cannot write the output: Broken pipe\n"
        assert (done.returncode, done.stderr) == (cli.EXIT_WRITE, message)

    def test_closed_fd_1_is_one_line_and_exit_120(self):
        # sys.stdout is None when fd 1 is closed at start-up
        script = 'exec "$0" -m fmtri.cli verify A2 >&-'
        src = str(Path(fmtri.__file__).resolve().parents[1])
        done = subprocess.run(
            ["sh", "-c", script, sys.executable],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        message = "error: cannot write the output: Bad file descriptor\n"
        assert (done.returncode, done.stderr) == (cli.EXIT_WRITE, message)

    def test_buffered_help_is_flushed_before_the_exit(self):
        done = run_module("--help", unbuffered=False)
        assert done.returncode == EXIT_OK
        assert done.stdout.startswith("usage: fmtri ")

    def test_atexit_handlers_run_and_what_they_write_is_flushed(self, capsys):
        # buffered, so the handler's line reaches the pipe only through run()'s flush
        script = "import atexit; atexit.register(print, 'handler ran'); from fmtri.cli import run; run()"
        done = run_module("verify", "A1", args=["-c", script], unbuffered=False)
        expected = run_cli(capsys, "verify", "A1")[1] + "handler ran\n"
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, expected, "")
