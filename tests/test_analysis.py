"""Manufactured cases, error norms, and the experiment drivers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polystokes import analysis as an
from polystokes import assembly as asm
from polystokes import geometry as geo
from polystokes import polybasis as pb
from polystokes import vemspace as vs
from polystokes.stokes_local import StabilizationConfig

ALL_CASES = ["test1", "test2", "patch_k1", "patch_k2", "patch_k3"]


def _finite_difference_check(case, pts, eps=1e-4):
    """f must equal -laplace(u) + grad(p) of the closed forms."""
    def lap_u(p):
        acc = np.zeros((len(p), 2))
        for d in range(2):
            e = np.zeros(2)
            e[d] = eps
            acc += (case.velocity(p + e) - 2 * case.velocity(p)
                    + case.velocity(p - e)) / eps ** 2
        return acc

    def grad_p(p):
        g = np.zeros((len(p), 2))
        for d in range(2):
            e = np.zeros(2)
            e[d] = eps
            g[:, d] = (case.pressure(p + e) - case.pressure(p - e)) / (2 * eps)
        return g

    return -lap_u(pts) + grad_p(pts)


@pytest.mark.parametrize("name", ALL_CASES)
def test_divergence_free(name):
    case = an.get_case(name)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(100, 2))
    g = case.grad_velocity(pts)
    div = g[:, 0, 0] + g[:, 1, 1]
    assert np.abs(div).max() <= 1e-12


@pytest.mark.parametrize("name", ALL_CASES)
def test_pressure_mean_zero(name):
    case = an.get_case(name)
    # tensor Gauss quadrature over the unit square
    t, w = np.polynomial.legendre.leggauss(24)
    x = 0.5 * (t + 1)
    X, Y = np.meshgrid(x, x)
    W = 0.25 * np.outer(w, w)
    vals = case.pressure(np.column_stack([X.ravel(), Y.ravel()]))
    assert abs(np.sum(W.ravel() * vals)) < 1e-12


@pytest.mark.parametrize("name", ALL_CASES)
def test_forcing_consistent_with_fields(name):
    case = an.get_case(name)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.1, 0.9, size=(30, 2))
    want = _finite_difference_check(case, pts)
    assert case.forcing(pts) == pytest.approx(want, rel=1e-3, abs=1e-3)


@pytest.mark.parametrize("name", ALL_CASES)
def test_gradients_consistent_with_velocity(name):
    case = an.get_case(name)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.1, 0.9, size=(30, 2))
    eps = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = eps
        fd = (case.velocity(pts + e) - case.velocity(pts - e)) / (2 * eps)
        assert case.grad_velocity(pts)[:, :, d] == pytest.approx(
            fd, rel=1e-6, abs=1e-7)


def test_trig_case_point_value():
    case = an.get_case("test1")
    got = case.velocity(np.array([[0.25, 0.25]]))[0]
    assert got == pytest.approx([1.0, -1.0], abs=1e-14)


def test_poly_case_pressure_shift():
    # the raw polynomial pressure evaluates to -1/10 at the origin; the
    # stored field is shifted by +1/20 so its domain mean vanishes
    case = an.get_case("test2")
    got = case.pressure(np.array([[0.0, 0.0]]))[0]
    assert got == pytest.approx(-0.1 + 0.05, abs=1e-15)


def test_unknown_case():
    for name in ("test9", "patch_kx", "patch_k", "patch_k-1"):
        with pytest.raises(ValueError, match=f"^unknown case '{name}'$"):
            an.get_case(name)
    with pytest.raises(ValueError, match="patch cases exist"):
        an.get_case("patch_k4")


def test_compute_errors_exact_patch():
    mesh = geo.generate_mesh("hexagonal", 1)
    case = an.get_case("patch_k1")
    sol = asm.solve_stokes(mesh, 1, f=case.forcing, g=case.velocity)
    rep = an.compute_errors(sol, case)
    assert rep.err0_u <= 1e-9
    assert rep.err1_u <= 1e-9
    assert rep.err0_p <= 1e-9


def test_compute_errors_zero_exact_guard():
    # u = 0 exact with a zero solve returns absolute (zero) errors
    mesh = geo.generate_mesh("hexagonal", 1)
    zero = an.ManufacturedCase(
        "zero",
        velocity=lambda p: np.zeros((len(p), 2)),
        pressure=lambda p: np.zeros(len(p)),
        forcing=lambda p: np.zeros((len(p), 2)),
        grad_velocity=lambda p: np.zeros((len(p), 2, 2)))
    sol = asm.solve_stokes(mesh, 1, f=zero.forcing, g=zero.velocity)
    rep = an.compute_errors(sol, zero)
    assert rep.err0_u == 0.0 and rep.err1_u == 0.0 and rep.err0_p == 0.0


def test_run_convergence_rows_and_rates():
    rows = an.run_convergence("hexagonal", [1, 2], 1, "test1", timings=False)
    assert len(rows) == 2
    assert rows[0]["h"] > rows[1]["h"]
    assert np.isnan(rows[0]["rate1_u"])
    assert 0.7 < rows[1]["rate1_u"] < 1.4
    assert all(r["seconds"] == 0.0 for r in rows)
    assert all(r["err0_u"] >= 0 for r in rows)


def test_run_alpha_sweep_rows():
    rows = an.run_alpha_sweep("hexagonal", 1, 1, alphas=(1e-2, 1.0),
                              basis_kinds=("l2_orthonormal",))
    assert len(rows) == 2
    assert all(np.isfinite(r["cond"]) and r["cond"] > 1 for r in rows)
    assert [r["alpha"] for r in rows] == [1e-2, 1.0]


def _exact(rows):
    """The rows with every float as its repr, so that NaN rates compare
    equal and every other float compares to the bit."""
    return [{key: repr(v) if isinstance(v, float) else v
             for key, v in row.items()} for row in rows]


def _counting_meshes(monkeypatch):
    """Record the (family, level) of every mesh the studies generate."""
    calls = []
    real = an.generate_mesh

    def counted(family, level, **kwargs):
        calls.append((family, level))
        return real(family, level, **kwargs)

    monkeypatch.setattr(an, "generate_mesh", counted)
    return calls


def test_run_convergence_over_lists_equals_the_slices(monkeypatch):
    # one call over every (case, family, k) gives the rows of one call per
    # slice, in the CLI's order, and generates each (family, level) once
    families, levels, ks, cases = ["hexagonal", "diamond"], [1, 2], [1, 2], \
        ["test1", "patch"]
    slices = [row for case in cases for family in families for k in ks
              for row in an.run_convergence(family, levels, k, case,
                                            timings=False)]
    calls = _counting_meshes(monkeypatch)
    rows = an.run_convergence(families, levels, ks, cases, timings=False)
    assert _exact(rows) == _exact(slices)
    assert calls == [(f, level) for f in families for level in levels]


def test_run_alpha_sweep_over_degrees_equals_the_slices(monkeypatch):
    kwargs = dict(alphas=(1e-2, 1.0), basis_kinds=("scaled_monomial",
                                                   "l2_orthonormal"))
    slices = [row for k in (1, 2)
              for row in an.run_alpha_sweep("hexagonal", 1, k, **kwargs)]
    calls = _counting_meshes(monkeypatch)
    rows = an.run_alpha_sweep("hexagonal", 1, [1, 2], **kwargs)
    assert _exact(rows) == _exact(slices)
    assert calls == [("hexagonal", 1)]


def test_alpha_plateau_pinned_factor():
    # with the orthonormal basis the condition number levels off once the
    # pressure stabilization stops dominating; pinned at 1.5x the first
    # measured variation over alpha in [1e-4, 1e2] (voronoi level 1, k=1)
    rows = an.run_alpha_sweep("voronoi", 1, 1,
                              alphas=(1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2),
                              basis_kinds=("l2_orthonormal",))
    conds = np.array([r["cond"] for r in rows])
    assert conds.max() / conds.min() < 211.0


def test_write_csv_deterministic(tmp_path):
    rows = [{"a": 1, "b": 0.1 + 0.2}, {"a": 2, "b": float("nan")},
            {"a": 3, "b": np.float64(0.001)}]
    p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
    an.write_csv(p1, rows, ["a", "b"])
    an.write_csv(p2, rows, ["a", "b"])
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.splitlines()[0] == "a,b"
    assert "0.30000000000000004" in text
    assert text.splitlines()[3] == "3,0.001"
    assert "np.float64" not in text


@given(st.floats(min_value=1e-8, max_value=1.0),
       st.floats(min_value=1.5, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_rate_recovers_synthetic_order(err, order):
    h1, h2 = 0.1, 0.05
    e1 = err
    e2 = err * (h2 / h1) ** order
    got = an._rate(e1, h1, e2, h2)
    assert got == pytest.approx(order, rel=1e-9)


@pytest.mark.parametrize("family", geo.MESH_FAMILIES)
@pytest.mark.parametrize("case_name", ["test1", "test2", "patch_k2"])
def test_compute_errors_equals_per_cell_oracle(family, case_name):
    # contributions computed per vertex-count group, summed in cell order
    case = an.get_case(case_name)
    mesh = geo.generate_mesh(family, 1)
    for kind in ("scaled_monomial", "l2_orthonormal"):
        sol = asm.solve_stokes(mesh, 2, f=case.forcing, g=case.velocity,
                               basis_kind=kind)
        rep = an.compute_errors(sol, case)
        assert (rep.err0_u, rep.err1_u, rep.err0_p) == \
            oracles.compute_errors(mesh, sol, case)


def test_power_tables_once_per_point_set(monkeypatch):
    # one table per cell at its quadrature points, for its basis and its
    # batch, and per batch one at the edge points and one at the DOF nodes
    # of its cells, and one at its quadrature points for the error norms,
    # which keep no table; the error gradients need none
    calls = []
    real = pb._scaled_powers

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(pb, "_scaled_powers", counted)
    case = an.get_case("test1")
    mesh = geo.generate_mesh("hexagonal", 2)
    system = asm.assemble(mesh, 3, f=case.forcing, g=case.velocity)
    an.compute_errors(asm.solve(system), case)
    groups = len({len(ring) for ring in mesh.cells})
    assert len(calls) <= 3 * len(mesh.cells) + groups
    assert len(calls) == len(mesh.cells) + 3 * len(system.batches)


@pytest.mark.parametrize("study, refusal", [
    (lambda: an.run_alpha_sweep("voronoi", 1, 1, alphas=(1.0, 10.0, -1.0)),
     (StabilizationConfig, -1.0)),
    (lambda: an.run_alpha_sweep("voronoi", 1, 0), (vs.check_degree, 0)),
    (lambda: an.run_convergence("hexagonal", [1, 2, 7], 1, "test1"),
     (geo.check_mesh_level, "hexagonal", 7)),
    (lambda: an.run_convergence("hexagonal", [1], 0, "test1"),
     (vs.check_degree, 0)),
    (lambda: an.run_alpha_sweep("voronoi", 1, 1, alphas=(1.0, 10.0),
                                basis_kinds=("scaled_monomial", "nope")),
     (pb.check_basis_kind, "nope")),
    (lambda: an.run_convergence("hexagonal", [1, 2], 1, "test1",
                                basis_kind="nope"),
     (pb.check_basis_kind, "nope")),
    (lambda: an.run_convergence("hexagonal", [1, 2], 1.5, "test1"),
     (vs.check_degree, 1.5)),
    (lambda: asm.assemble(geo.generate_mesh("hexagonal", 1), 2.0),
     (vs.check_degree, 2.0)),
    # no function but the study refuses an empty list; run unpatched, the
    # empty-alphas reference ends in an IndexError unless the study checks
    # it, and the others return no rows
    (lambda: an.run_alpha_sweep("voronoi", 1, 1, alphas=()),
     (an.run_alpha_sweep, "voronoi", 1, 1, ())),
    (lambda: an.run_convergence(["hexagonal", "voronoi"], [1], [1, 2],
                                ["test1", "nope"]),
     (an.get_case, "nope")),
    (lambda: an.run_alpha_sweep("voronoi", 1, [1, 0]), (vs.check_degree, 0)),
    (lambda: an.run_convergence([], [1, 2], 1, "test1"),
     (an.run_convergence, [], [1, 2], 1, "test1")),
    (lambda: an.run_convergence("hexagonal", [], 1, "test1"),
     (an.run_convergence, "hexagonal", [], 1, "test1")),
    (lambda: an.run_convergence("hexagonal", [1, 2], [], "test1"),
     (an.run_convergence, "hexagonal", [1, 2], [], "test1")),
    (lambda: an.run_convergence("hexagonal", [1, 2], 1, []),
     (an.run_convergence, "hexagonal", [1, 2], 1, [])),
    (lambda: an.run_alpha_sweep("voronoi", 1, []),
     (an.run_alpha_sweep, "voronoi", 1, [])),
    (lambda: an.run_alpha_sweep("voronoi", 1, 1, basis_kinds=()),
     (an.run_alpha_sweep, "voronoi", 1, 1, an.DEFAULT_ALPHAS, ())),
    # a repeated level or family generated its meshes twice, and a repeated
    # level gave nan rates from log(1) / log(1)
    (lambda: an.run_convergence("hexagonal", [1, 1], 1, "test1"),
     (an.run_convergence, "hexagonal", [1, 1], 1, "test1")),
    (lambda: an.run_convergence(["hexagonal", "voronoi", "hexagonal"], [1],
                                1, "test1"),
     (an.run_convergence, ["hexagonal", "voronoi", "hexagonal"], [1], 1,
      "test1")),
], ids=["alpha-sweep-alpha", "alpha-sweep-k", "convergence-level",
        "convergence-k", "alpha-sweep-basis", "convergence-basis",
        "convergence-non-integer-k", "assemble-non-integer-k",
        "alpha-sweep-no-alphas", "convergence-late-case",
        "alpha-sweep-late-k", "convergence-no-families",
        "convergence-no-levels", "convergence-no-degrees",
        "convergence-no-cases", "alpha-sweep-no-degrees",
        "alpha-sweep-no-basis-kinds", "convergence-repeated-level",
        "convergence-repeated-family"])
def test_studies_refuse_bad_input_before_any_work(study, refusal,
                                                  monkeypatch):
    # these generated meshes and solved (or computed condition numbers for)
    # every earlier level or alpha before refusing; a non-integer degree
    # got as far as the first mesh, or failed with a TypeError in assemble
    call, *args = refusal
    with pytest.raises(ValueError) as want:
        call(*args)

    def reached(*args, **kwargs):
        raise AssertionError("a study did work before its input was checked")

    for name in ("generate_mesh", "solve_stokes", "condition_number"):
        monkeypatch.setattr(an, name, reached)
    monkeypatch.setattr(asm, "build_element", reached)
    with pytest.raises(ValueError) as got:
        study()
    assert str(got.value) == str(want.value)
