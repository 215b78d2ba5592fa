"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s``) and enforces its stated exactness and time budget.  Lattices
are built fresh inside the timed criteria; a session store shares them with
the untimed ones afterwards.
"""

import json
import time
from contextlib import contextmanager
from math import comb

import pytest

from fmtri.cartan import CartanType, parse_spec, spec_of
from fmtri.cli import EXIT_OK, main
from fmtri.conjecture import verify_conjecture
from fmtri.ftriangle import f_triangle, f_vector, h_vector
from fmtri.poly import diagonal, subs_x, subs_y
from fmtri.weyl import (
    build_nc_lattice,
    build_rep,
    invariant_formulas,
    nc_lattice,
)

from oracles import (
    abs_length,
    closed_f_vector_A,
    closed_f_vector_B,
    closed_form_A,
    closed_form_B,
    reflect,
    reflection_word_length,
    whole_group,
    zeta_bruteforce,
    zeta_value,
)

# fmt: off
RANK_LE_8_PLUS_EXCEPTIONAL = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
RANK_LE_6_LATTICE_TYPES = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(3, 7)] + [f"D{n}" for n in range(4, 7)]
    + ["E6", "F4", "G2"]
)
CONJECTURE_SPECS = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "F4", "G2", "A1xA1", "A2xA1"]
)
# fmt: on


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


@pytest.fixture(scope="session")
def lattice_store():
    """Fresh, individually timed lattice builds shared across criteria."""
    store = {}

    def get(spec_str):
        if spec_str not in store:
            t0 = time.perf_counter()
            lat = build_nc_lattice(build_rep(parse_spec(spec_str)))
            store[spec_str] = (lat, time.perf_counter() - t0)
        return store[spec_str]

    return get


def test_criterion_1_reference_values():
    with criterion(1, "A3 triangle and f-vector match the reference values, < 1 s"):
        t0 = time.perf_counter()
        ft = f_triangle(parse_spec("A3"))
        rows = [list(row[: 4 - k]) for k, row in enumerate(ft)]
        fv = f_vector(ft)
        elapsed = time.perf_counter() - t0
        assert rows == [[1, 3, 3, 1], [6, 8, 3], [10, 5], [5]]
        assert fv == (1, 9, 21, 14)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_closed_form_oracles():
    with criterion(2, "closed forms equal the recursion for A and B up to rank 8, < 5 s"):
        t0 = time.perf_counter()
        for n in range(1, 9):
            ft = f_triangle(spec_of(CartanType("A", n)))
            assert closed_form_A(n) == ft
            assert f_vector(ft) == closed_f_vector_A(n)
            assert diagonal(closed_form_A(n)) == closed_f_vector_A(n)
        for n in range(2, 9):
            ft = f_triangle(spec_of(CartanType("B", n)))
            assert closed_form_B(n) == ft
            assert f_vector(ft) == closed_f_vector_B(n)
            assert diagonal(closed_form_B(n)) == closed_f_vector_B(n)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_symmetry_suite():
    with criterion(3, "reflection symmetry and corner specializations, all types, < 10 s"):
        t0 = time.perf_counter()
        for s in RANK_LE_8_PLUS_EXCEPTIONAL:
            ft = f_triangle(parse_spec(s))
            n = parse_spec(s).rank
            assert reflect(ft) == ft
            assert subs_x(ft, 0) == tuple(comb(n, l) for l in range(n + 1))
            assert subs_x(ft, -1) == (0,) * n + (1,)
            # F(x,0) and F(x,-1) determine each other through the reflection
            sign = 1 if n % 2 == 0 else -1
            pos = subs_y(ft, 0)
            nat = subs_y(ft, -1)

            def negate_shift(q):
                out = [0] * len(q)
                for k, c in enumerate(q):
                    for a in range(k + 1):
                        out[a] += sign * c * comb(k, a) * (-1) ** k
                return tuple(out)

            assert negate_shift(nat) == pos and negate_shift(pos) == nat
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_lattice_formulas(lattice_store):
    desc = "lattice cardinality, Moebius number, and Zeta values match the formulas"
    with criterion(4, desc):
        small_elapsed = 0.0
        for s in RANK_LE_6_LATTICE_TYPES:
            lat, build_time = lattice_store(s)
            forms = invariant_formulas(parse_spec(s))
            assert lat.cardinality == forms.cardinality, s
            assert lat.mobius_number == forms.mobius_number, s
            if parse_spec(s).rank <= 5:
                small_elapsed += build_time
        # zeta brute force at small ranks
        for s in RANK_LE_6_LATTICE_TYPES:
            if parse_spec(s).rank > 4:
                continue
            lat, _ = lattice_store(s)
            forms = invariant_formulas(parse_spec(s))
            for m in range(1, 6):
                assert zeta_bruteforce(lat, m) == zeta_value(forms, m), (s, m)
        e6, e6_time = lattice_store("E6")
        assert e6.cardinality == 833
        assert small_elapsed < 30.0, f"rank<=5 builds took {small_elapsed:.2f}s"
        assert e6_time < 600.0, f"E6 build took {e6_time:.2f}s"


def test_criterion_5_conjecture_verification(lattice_store):
    desc = "change-of-variables identity verified exactly across the sweep"
    with criterion(5, desc):
        for s in CONJECTURE_SPECS:
            payload = verify_conjecture(nc_lattice(parse_spec(s)), f_triangle(parse_spec(s)))
            assert payload["verified"] and all(payload["evidence"].values()), s
        # E6 end to end (fresh lattice build) within its budget
        t0 = time.perf_counter()
        lat = build_nc_lattice(build_rep(parse_spec("E6")))
        payload = verify_conjecture(lat, f_triangle(lat.spec))
        e6_elapsed = time.perf_counter() - t0
        assert payload["verified"] and all(payload["evidence"].values())
        assert e6_elapsed < 900.0, f"E6 verification took {e6_elapsed:.2f}s"
        # the scripted sweep must exit 0
        import io
        from contextlib import redirect_stdout

        sweep_out = io.StringIO()
        with redirect_stdout(sweep_out):
            code = main(["sweep", *CONJECTURE_SPECS])
        assert code == EXIT_OK
        assert json.loads(sweep_out.getvalue())["payload"]["all_verified"] is True


def test_criterion_6_evidence_suite(lattice_store):
    desc = "h-vector, positive-cluster count, self-duality, column collapse"
    with criterion(6, desc):
        assert h_vector(f_triangle(parse_spec("A3"))) == (1, 6, 6, 1)
        for s in RANK_LE_6_LATTICE_TYPES:
            lat, _ = lattice_store(s)
            n = lat.n
            ft = f_triangle(parse_spec(s))
            assert tuple(map(len, lat.levels)) == h_vector(ft), s
            sign = 1 if n % 2 == 0 else -1
            assert ft[n][0] == sign * lat.mobius_number, s
            m = lat.m_triangle
            for i in range(n + 1):
                for j in range(n + 1):
                    assert m[i][j] == m[n - j][n - i], s
            assert subs_x(m, 1) == (0,) * n + (1,), s


def test_criterion_7_length_function_oracle():
    desc = "fixed-space codimension equals reflection word length on A3 and B3"
    with criterion(7, desc):
        t0 = time.perf_counter()
        for s, size in (("A3", 24), ("B3", 48)):
            rep = build_rep(parse_spec(s))
            group = whole_group(rep)
            assert len(group) == size
            for g in group:
                assert abs_length(g) == reflection_word_length(rep, g)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _run_cli_capture(argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_8_determinism_and_invariance(tmp_path):
    desc = "Coxeter-order invariance and byte-identical CLI output"
    with criterion(8, desc):
        for s in ("A3", "B3"):
            rep = build_rep(parse_spec(s))
            m1 = build_nc_lattice(rep, coxeter_order=(1, 2, 3)).m_triangle
            m2 = build_nc_lattice(rep, coxeter_order=(3, 2, 1)).m_triangle
            assert m1 == m2, s
        # repeated runs
        code1, out1 = _run_cli_capture(["verify", "A3"])
        code2, out2 = _run_cli_capture(["verify", "A3"])
        assert code1 == code2 == EXIT_OK
        assert out1 == out2 and out1
        # cold versus warm cache
        args = ["verify", "B3", "--cache-dir", str(tmp_path)]
        code1, cold = _run_cli_capture(args)
        code2, warm = _run_cli_capture(args)
        assert code1 == code2 == EXIT_OK
        assert cold == warm
        assert json.loads(cold)["payload"]["verified"] is True
