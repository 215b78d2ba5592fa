import functools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmtri
from fmtri import cache, cli, conjecture, weyl
from fmtri.cache import lattice_from_doc, lattice_to_doc, load_or_build_lattice
from fmtri.cartan import parse_spec
from fmtri.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, main
from fmtri.errors import InvariantViolation
from fmtri.ftriangle import f_triangle
from fmtri.weyl import nc_lattice

from oracles import poly_from_terms

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
        assert doc["payload"]["f"][0] == [prod.coeff(0, l) for l in range(4)]
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
            [nc_lattice("A3").m_triangle.coeff(i, j) for j in range(4)] for i in range(4)
        ]

    def test_bad_order_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "mtriangle", "A3", "--coxeter-order", "1,2")
        assert code == EXIT_USAGE
        assert run_cli.last_err == "error: Coxeter order 1,2 is not a permutation of 1..3\n"
        code, _ = run_cli(capsys, "mtriangle", "A3", "--coxeter-order", "1,two,3")
        assert code == EXIT_USAGE
        assert run_cli.last_err == "error: --coxeter-order '1,two,3' is not a comma-separated permutation\n"


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

    def test_verified_exit_code_mapping(self):
        from fmtri.cli import _verify_payload

        payload, code = _verify_payload(parse_spec("A2"), None, None, None, False)
        assert code == EXIT_OK and payload["verified"]

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # no real spec mismatches, so doctor the F side: 1 + 2x + y for A1
        wrong = poly_from_terms((0, 0, 1), (1, 0, 2), (0, 1, 1))
        monkeypatch.setattr(conjecture, "f_triangle", lambda spec: wrong)
        code, out = run_cli(capsys, "verify", "A1")
        assert code == EXIT_MISMATCH
        assert json.loads(out)["payload"]["mismatches"] == [[0, 1, 2, 1], [1, 0, 2, 1]]
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
        lat = nc_lattice("A3")
        if flag == "h_vector_match":
            lat = lat._replace(ranks=(0, 2) + lat.ranks[2:])
        else:
            k, l = {"positive_cluster_count_match": (3, 0), "m_self_dual": (2, 0)}.get(flag, (2, 1))
            lat = lat._replace(m_triangle=lat.m_triangle + poly_from_terms((k, l, 1)))
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
            return SimpleNamespace(m_triangle=lat.m_triangle + poly_from_terms((1, 0, 1)))

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
        # the masks carry the order relation and the Moebius row is derived
        # from them again, so a loaded lattice is the same value as a fresh one
        for s in ["A3", "B3", "D4", "A2xA1"]:
            lat = nc_lattice(s)
            assert lattice_from_doc(lattice_to_doc(lat)) == lat

    def test_cached_lattice_file_reused(self, tmp_path):
        lat1 = load_or_build_lattice("A2", cache_dir=tmp_path)
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
        lat2 = load_or_build_lattice("A2", cache_dir=tmp_path)
        assert path.stat().st_mtime_ns == stamp
        assert lat2 == lat1 and lat2.m_triangle == lat1.m_triangle

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
        # atom 2 loses its lowest bit, and with it one of the elements of
        # rank 2 above it, so the maximal chains are one fewer
        doc["elements"][2] &= doc["elements"][2] - 1
        path.write_text(json.dumps(doc))
        assert load_or_build_lattice("A3", cache_dir=tmp_path) == nc_lattice("A3")
        assert lattice_from_doc(json.loads(path.read_text())) == nc_lattice("A3")

    def test_lattice_file_of_the_wrong_size_is_refused_before_derivation(self):
        # the holders of each bit take |L| |Phi+| bits, so |L| is checked
        # before a rank is read
        doc = lattice_to_doc(nc_lattice("A3"))
        doc["elements"].append(0)
        with pytest.raises(InvariantViolation, match="\\|L\\| = 15, expected 14"):
            lattice_from_doc(doc)

        def unread(*_args):
            raise AssertionError("read the ranks of a lattice of the wrong size")

        class Unread:
            __getitem__ = __iter__ = __len__ = unread

        with pytest.raises(InvariantViolation, match="\\|L\\| = 15, expected 14"):
            weyl.lattice_from_masks(parse_spec("A3"), (1, 2, 3), doc["elements"], Unread())

    @pytest.mark.parametrize(
        "edit",
        [
            "mask_repeated", "mask_float", "rank_bool", "mask_bit", "rank_1",
            "schema_1", "schema_2", "schema_3", "schema_4", "schema_float", "order_float",
        ],
    )
    def test_doctored_lattice_file_is_rebuilt(self, capsys, tmp_path, edit):
        _, cold = run_cli(capsys, "verify", "A3")
        args = ("verify", "A3", "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        path = next(tmp_path.iterdir())
        fresh = path.read_bytes()
        doc = json.loads(fresh)
        assert doc["ranks"][1] == 1
        if edit == "mask_repeated":
            # atom 1 takes the mask of atom 2, so two elements are one
            doc["elements"][1] = doc["elements"][2]
        elif edit == "mask_float":
            # 5.0 == 5 in Python, but a cache file holds JSON integers only
            doc["elements"][1] = float(doc["elements"][1])
        elif edit == "rank_bool":
            # true == 1 in Python: the rank of atom 1 as true
            doc["ranks"][1] = True
        elif edit == "mask_bit":
            # atom 1 gains or loses a reflection, so the order the masks give is off
            doc["elements"][1] ^= 1
        elif edit == "rank_1":
            doc["ranks"][1] = 2
        elif edit == "schema_float":
            # 5.0 == 5 in Python, but the schema version is a JSON integer
            doc["schema_version"] = 5.0
        elif edit.startswith("schema_"):
            # a file of another schema version is a miss even under the current name
            doc["schema_version"] = int(edit[-1])
        else:
            doc["coxeter_order"] = [float(i) for i in doc["coxeter_order"]]
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, *args)
        assert code == EXIT_OK
        assert out == cold
        assert path.read_bytes() == fresh

    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from(["A3", "B3"]), data=st.data())
    def test_one_changed_integer_keeps_the_cold_output(self, spec, data):
        # any one integer of the file off by one, or made a float or a bool:
        # the file is a miss, or it still describes the same lattice
        cold, name, fresh = cold_run_and_cache_file(spec)
        doc = json.loads(fresh)
        keys = ["schema_version", "coxeter_order", "elements", "ranks"]
        key = data.draw(st.sampled_from(keys))
        if key == "schema_version":
            holder, at = doc, key
        else:
            holder = doc[key]
            at = data.draw(st.integers(0, len(holder) - 1))
        holder[at] = data.draw(
            st.sampled_from([holder[at] + 1, holder[at] - 1, float(holder[at])]) | st.booleans()
        )
        with tempfile.TemporaryDirectory() as cache_dir:
            (Path(cache_dir) / name).write_text(json.dumps(doc))
            code, out = run_cli(None, "verify", spec, "--cache-dir", cache_dir)
        assert (code, out) == (EXIT_OK, cold)

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from(["A3", "B3"]), data=st.data())
    def test_one_corrupted_byte_keeps_the_cold_output(self, spec, data):
        # one byte deleted, inserted, or overwritten with a byte of JSON's
        # numbers and structure: the file is a miss, or it still describes
        # the same lattice
        cold, name, fresh = cold_run_and_cache_file(spec)
        edit = data.draw(st.sampled_from(["delete", "insert", "overwrite"]))
        at = data.draw(st.integers(0, len(fresh) - 1))
        byte = "" if edit == "delete" else data.draw(st.sampled_from('0123456789-,[]{}":.e'))
        text = fresh[:at] + byte + fresh[at + (edit != "insert") :]
        with tempfile.TemporaryDirectory() as cache_dir:
            (Path(cache_dir) / name).write_text(text)
            code, out = run_cli(None, "verify", spec, "--cache-dir", cache_dir)
        assert (code, out) == (EXIT_OK, cold)

    @settings(max_examples=100, deadline=None)
    @given(spec=st.sampled_from(["A3", "B3", "D4"]), data=st.data())
    def test_one_flipped_mask_bit_is_rebuilt(self, spec, data):
        # one bit of one element's mask flips, up to and including bit
        # |Phi+|, which names no reflection: the masks then give another
        # order or none, the file is a miss, and the rebuilt lattice
        # replaces it
        cold, name, fresh = cold_run_and_cache_file(spec)
        doc = json.loads(fresh)
        elements = doc["elements"]
        at = data.draw(st.integers(0, len(elements) - 1))
        elements[at] ^= 1 << data.draw(st.integers(0, elements[0].bit_length()))
        with tempfile.TemporaryDirectory() as cache_dir:
            path = Path(cache_dir) / name
            path.write_text(json.dumps(doc))
            code, out = run_cli(None, "verify", spec, "--cache-dir", cache_dir)
            assert (code, out) == (EXIT_OK, cold)
            assert path.read_text() == fresh

    def test_warm_hit_respects_the_time_budget(self, capsys, tmp_path):
        args = ("verify", "E7", "--cache-dir", str(tmp_path))
        assert run_cli(capsys, *args)[0] == EXIT_OK
        code, out = run_cli(capsys, *args, "--max-seconds", "0")
        assert code == EXIT_TIMEOUT
        assert json.loads(out)["payload"]["timeout"] is True

    def test_no_command_computes_the_whole_moebius_table(self, capsys, tmp_path, monkeypatch):
        def runs(cache_dir):
            return [
                run_cli(capsys, command, "B6", "--cache-dir", str(cache_dir / command))
                for command in ("verify", "mtriangle")
                for _cold_then_warm in range(2)
            ]

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
        # once.  This holds for a fresh build and a cache load alike
        calls = []

        def counted(name, real):
            def count(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return count

        derive = counted("lattice_from_masks", weyl.lattice_from_masks)
        monkeypatch.setattr(weyl, "lattice_from_masks", derive)
        monkeypatch.setattr(cache, "lattice_from_masks", derive)
        monkeypatch.setattr(
            weyl, "invariant_formulas", counted("invariant_formulas", weyl.invariant_formulas)
        )

        def calls_of(*argv):
            monkeypatch.setattr(weyl, "_LATTICE_MEMO", {})
            calls.clear()
            assert run_cli(capsys, *argv)[0] == EXIT_OK
            return sorted(calls)

        once = ["invariant_formulas", "lattice_from_masks"]
        cached = ("verify", "B6", "--cache-dir", str(tmp_path))
        assert calls_of("verify", "B6") == once
        assert calls_of(*cached) == once
        assert any(tmp_path.iterdir())
        assert calls_of(*cached) == once
        assert calls_of("mtriangle", "B6") == once


@functools.cache
def cold_run_and_cache_file(spec):
    """The stdout of ``verify spec`` and the name and bytes of its cache file."""
    _, cold = run_cli(None, "verify", spec)
    with tempfile.TemporaryDirectory() as cache_dir:
        run_cli(None, "verify", spec, "--cache-dir", cache_dir)
        path = next(Path(cache_dir).iterdir())
        return cold, path.name, path.read_text()


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize("command", ["invariants", "verify", "sweep"])
    def test_tex_not_defined_for(self, capsys, tmp_path, command):
        # the parser refuses it, before a lattice is built or a cache file written
        cache = () if command == "invariants" else ("--cache-dir", str(tmp_path))
        assert run_cli(capsys, command, "A2", "--format", "tex", *cache)[0] == EXIT_USAGE
        assert "invalid choice: 'tex'" in run_cli.last_err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["ftriangle", "fvector", "invariants"])
    def test_cache_dir_only_on_lattice_commands(self, capsys, tmp_path, command):
        assert run_cli(capsys, command, "A3", "--cache-dir", str(tmp_path))[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, kind",
        [
            pytest.param(c, kind, id=c if kind == "file" else f"{c}-{kind}")
            for kind in ("file", "under_a_file", "dangling_link", "under_a_dangling_link")
            for c in ("verify", "mtriangle", "sweep")
        ],
    )
    def test_cache_dir_that_is_a_file_is_usage_error(
        self, capsys, tmp_path, monkeypatch, command, kind
    ):
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
        assert run_cli(capsys, command, "A2", "--cache-dir", str(arg)) == (EXIT_USAGE, "")
        where = f"is under {str(path)!r}, which exists" if under else "exists"
        message = f"error: --cache-dir {str(arg)!r} {where} and is not a directory\n"
        assert run_cli.last_err == message
        assert list(tmp_path.iterdir()) == [path]
        assert path.is_symlink() or path.read_text() == ""

    @pytest.mark.parametrize("command", ["verify", "mtriangle", "sweep"])
    def test_empty_cache_dir_is_usage_error(self, capsys, tmp_path, monkeypatch, command):
        # '' would mean the current directory: refused before any lattice
        # is looked up, with one line, and no file is written there
        monkeypatch.chdir(tmp_path)

        def lookup(*_args, **_kwargs):
            raise AssertionError("looked up a lattice")

        monkeypatch.setattr(cli, "load_or_build_lattice", lookup)
        assert run_cli(capsys, command, "A2", "--cache-dir", "") == (EXIT_USAGE, "")
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
