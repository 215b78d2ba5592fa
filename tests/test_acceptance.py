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

from fmtri.cartan import CartanType, parse_spec
from fmtri.cli import EXIT_OK, main
from fmtri.conjecture import verify_conjecture
from fmtri.ftriangle import f_triangle, f_vector, h_vector
from fmtri.weyl import (
    build_nc_lattice,
    build_rep,
    invariant_formulas,
    m_triangle,
    nc_lattice,
    rank_generating_function,
)

from oracles import (
    abs_length,
    closed_f_vector_A,
    closed_f_vector_B,
    closed_form_A,
    closed_form_B,
    reflect,
    reflection_word_length,
    uni_eval,
    whole_group,
    zeta_bruteforce,
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
            lat = build_nc_lattice(build_rep(spec_str))
            store[spec_str] = (lat, time.perf_counter() - t0)
        return store[spec_str]

    return get


def test_criterion_1_reference_values():
    with criterion(1, "A3 triangle and f-vector match the reference values, < 1 s"):
        t0 = time.perf_counter()
        ft = f_triangle("A3")
        rows = [[ft.coeff(k, l) for l in range(4 - k)] for k in range(4)]
        fv = f_vector("A3")
        elapsed = time.perf_counter() - t0
        assert rows == [[1, 3, 3, 1], [6, 8, 3], [10, 5], [5]]
        assert fv == (1, 9, 21, 14)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_closed_form_oracles():
    with criterion(2, "closed forms equal the recursion for A and B up to rank 8, < 5 s"):
        t0 = time.perf_counter()
        for n in range(1, 9):
            assert closed_form_A(n) == f_triangle(CartanType("A", n))
            assert f_vector(CartanType("A", n)) == closed_f_vector_A(n)
            assert closed_form_A(n).diagonal() == closed_f_vector_A(n)
        for n in range(2, 9):
            assert closed_form_B(n) == f_triangle(CartanType("B", n))
            assert f_vector(CartanType("B", n)) == closed_f_vector_B(n)
            assert closed_form_B(n).diagonal() == closed_f_vector_B(n)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_symmetry_suite():
    with criterion(3, "reflection symmetry and corner specializations, all types, < 10 s"):
        t0 = time.perf_counter()
        for s in RANK_LE_8_PLUS_EXCEPTIONAL:
            ft = f_triangle(s)
            n = parse_spec(s).rank
            assert reflect(ft, n) == ft
            assert ft.subs_x(0) == tuple(comb(n, l) for l in range(n + 1))
            assert ft.subs_x(-1) == tuple([0] * n + [1])
            # F(x,0) and F(x,-1) determine each other through the reflection
            sign = 1 if n % 2 == 0 else -1
            pos = tuple(ft.coeff(k, 0) for k in range(n + 1))
            nat = ft.subs_y(-1)
            nat = tuple(nat) + (0,) * (n + 1 - len(nat))

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
            forms = invariant_formulas(s)
            assert lat.cardinality == forms.cardinality, s
            assert lat.mobius_number == forms.mobius_number, s
            if parse_spec(s).rank <= 5:
                small_elapsed += build_time
        # zeta brute force at small ranks
        for s in RANK_LE_6_LATTICE_TYPES:
            if parse_spec(s).rank > 4:
                continue
            lat, _ = lattice_store(s)
            zeta = invariant_formulas(s).zeta
            for m in range(1, 6):
                assert zeta_bruteforce(lat, m) == uni_eval(zeta, m), (s, m)
        e6, e6_time = lattice_store("E6")
        assert e6.cardinality == 833
        assert small_elapsed < 30.0, f"rank<=5 builds took {small_elapsed:.2f}s"
        assert e6_time < 600.0, f"E6 build took {e6_time:.2f}s"


def test_criterion_5_conjecture_verification(lattice_store, tmp_path):
    desc = "change-of-variables identity verified exactly across the sweep"
    with criterion(5, desc):
        for s in CONJECTURE_SPECS:
            payload, _ = verify_conjecture(nc_lattice(s))
            assert payload["verified"] and all(payload["evidence"].values()), s
        # E6 end to end (fresh lattice build) within its budget
        t0 = time.perf_counter()
        lat = build_nc_lattice(build_rep("E6"))
        payload, _ = verify_conjecture(lat)
        e6_elapsed = time.perf_counter() - t0
        assert payload["verified"] and all(payload["evidence"].values())
        assert e6_elapsed < 900.0, f"E6 verification took {e6_elapsed:.2f}s"
        # the scripted sweep must exit 0
        import io
        from contextlib import redirect_stdout

        sweep_out = io.StringIO()
        with redirect_stdout(sweep_out):
            code = main(["sweep", *CONJECTURE_SPECS, "--cache-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert json.loads(sweep_out.getvalue())["payload"]["all_verified"] is True


def test_criterion_6_evidence_suite(lattice_store):
    desc = "h-vector, positive-cluster count, self-duality, column collapse"
    with criterion(6, desc):
        assert h_vector("A3") == (1, 6, 6, 1)
        for s in RANK_LE_6_LATTICE_TYPES:
            lat, _ = lattice_store(s)
            n = lat.n
            assert rank_generating_function(lat) == h_vector(s), s
            ft = f_triangle(s)
            sign = 1 if n % 2 == 0 else -1
            assert ft.coeff(n, 0) == sign * lat.mobius_number, s
            m = m_triangle(lat)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert m.coeff(i, j) == m.coeff(n - j, n - i), s
            assert m.subs_x(1) == tuple([0] * n + [1]), s


def test_criterion_7_length_function_oracle():
    desc = "fixed-space codimension equals reflection word length on A3 and B3"
    with criterion(7, desc):
        t0 = time.perf_counter()
        for s, size in (("A3", 24), ("B3", 48)):
            rep = build_rep(s)
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
            rep = build_rep(s)
            m1 = m_triangle(build_nc_lattice(rep, coxeter_order=(1, 2, 3)))
            m2 = m_triangle(build_nc_lattice(rep, coxeter_order=(3, 2, 1)))
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
