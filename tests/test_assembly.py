"""Global system: DOF counts, solves, condensation, conditioning."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from polystokes import analysis as an
from polystokes import assembly as asm
from polystokes import geometry as geo
from polystokes import polybasis as pb
from polystokes import vemspace as vs
from polystokes.stokes_local import StabilizationConfig

from oracles import (boundary_scalar_data, cell_elements, cell_scalar_dofs,
                     dense_condition_number, direct_solve, table,
                     uncondensed_solve)


def _zero_g(p):
    return np.zeros_like(p)


def test_dof_map_counts_hexagonal_level1_k1():
    mesh = geo.generate_mesh("hexagonal", 1)
    dm = asm.build_dof_map(mesh, 1)
    assert dm.n_scalar == 62                       # vertices only at k=1
    assert dm.n_system == 3 * 62 + 1


@pytest.mark.parametrize("k", [0, -1])
def test_degree_below_one_is_refused_before_any_work(k):
    mesh = geo.generate_mesh("hexagonal", 1)
    with pytest.raises(ValueError, match=r"^degree must be >= 1$"):
        asm.build_dof_map(mesh, k)
    with pytest.raises(ValueError, match=r"^degree must be >= 1$"):
        asm.assemble(mesh, k)


@pytest.mark.parametrize("condensed", [False, None])
def test_condensed_keyword_refused_before_any_work(condensed, monkeypatch):
    # only the condensed system is built; the keyword is kept for callers
    # that pass condensed=True
    def reached(*args, **kwargs):
        raise AssertionError("an element was built before the refusal")

    monkeypatch.setattr(asm, "build_element", reached)
    mesh = geo.generate_mesh("hexagonal", 1)
    with pytest.raises(ValueError, match=r"^only the condensed system is "
                       r"assembled; condensed must be True, not "):
        asm.assemble(mesh, 1, condensed=condensed)


def test_bad_basis_kind_refused_before_any_work(monkeypatch):
    # checked before the DOF map and the elements, so no cell is blamed
    def reached(*args, **kwargs):
        raise AssertionError("an element was built before the refusal")

    monkeypatch.setattr(asm, "build_element", reached)
    mesh = geo.generate_mesh("hexagonal", 1)
    with pytest.raises(ValueError, match=r"^unknown basis kind 'nope'$"):
        asm.assemble(mesh, 1, basis_kind="nope")


@pytest.mark.parametrize("k", [1, 2])
def test_ill_conditioned_refusal_names_its_cell(k):
    sliver = geo.build_mesh([[0, 0], [1, 0], [2, 1e-13], [1, 1e-13]],
                            [np.arange(4)])
    with pytest.raises(pb.IllConditionedBasisError,
                       match=r"^cell 0: scaled monomials") as exc:
        asm.assemble(sliver, k)
    assert isinstance(exc.value.__cause__, pb.IllConditionedBasisError)


def test_elements_built_in_batch_order(monkeypatch):
    # assemble builds each batch from its own cells' elements, batch after
    # batch: vertex count ascending, then cell id
    calls = []
    real = asm.build_element

    def recorded(mesh, c, *args, **kwargs):
        calls.append(c)
        return real(mesh, c, *args, **kwargs)

    monkeypatch.setattr(asm, "build_element", recorded)
    mesh = geo.generate_mesh("hexagonal", 2)
    system = asm.assemble(mesh, 2)
    order = sorted(range(mesh.n_cells), key=lambda c: (len(mesh.cells[c]), c))
    assert calls == order != list(range(mesh.n_cells))
    assert [c for batch in system.batches for c in batch.cells] == order


# three teeth: the inner sides of the outer two confine the kernel to
# x <= 0.2 and x >= 2.8, so it is empty
COMB = np.array([[0, 0], [3, 0], [3, 1], [2.8, 1], [2.8, 0.2], [1.6, 0.2],
                 [1.6, 1], [1.4, 1], [1.4, 0.2], [0.2, 0.2], [0.2, 1], [0, 1]])


def test_kernel_refusal_names_its_cell():
    comb = geo.build_mesh(COMB, [np.arange(12)])
    with pytest.raises(ValueError,
                       match=r"^cell 0: polygon is not star-shaped") as exc:
        asm.assemble(comb, 1)
    assert type(exc.value.__cause__) is ValueError


def test_cell_geometry_read_from_the_mesh(monkeypatch):
    # build_mesh computes each cell's centroid, diameter and area once;
    # assemble computed the centroid twice more per cell and the diameter
    # and area once more
    mesh = geo.generate_mesh("hexagonal", 2)
    calls = []
    for name in ("polygon_centroid", "polygon_diameter", "polygon_area"):
        real = getattr(geo, name)

        def counted(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(geo, name, counted)
    for k in (1, 2, 3):
        for kind in ("scaled_monomial", "l2_orthonormal"):
            asm.assemble(mesh, k, basis_kind=kind)
    assert calls == []


def test_dof_map_counts_k2():
    mesh = geo.generate_mesh("hexagonal", 1)
    dm = asm.build_dof_map(mesh, 2)
    assert dm.n_scalar == 62 + 91 + 30


def test_shared_edge_dofs_conform():
    # both cells adjacent to an interior edge must address the same global
    # edge DOFs at the same physical points
    mesh = geo.generate_mesh("hexagonal", 1)
    dm = asm.build_dof_map(mesh, 3)
    interior = np.where(~mesh.boundary_edge_flags)[0]
    e = interior[0]
    owners = [c for c in range(len(mesh.cells)) if e in list(mesh.cell_edges[c])]
    assert len(owners) == 2
    seen = []
    table = dm.cell_dofs
    for c in owners:
        gd = table[c]
        ring = mesh.cells[c]
        i = list(mesh.cell_edges[c]).index(e)
        nv = len(ring)
        base = nv + i * 2
        # global ids for this edge's two interior DOFs, in ring order
        ids = gd[base:base + 2]
        # normalize to the edge's own lo->hi direction
        if mesh.edges[e][0] != ring[i]:
            ids = ids[::-1]
        seen.append(list(ids))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("family", ["hexagonal", "voronoi",
                                    "random_polygons", "diamond"])
def test_dof_table_and_boundary_data_match_loops(family):
    # the gathers index exactly like the per-cell and per-edge loops
    mesh = geo.generate_mesh(family, 2)
    g = an.get_case("test1").velocity
    for k in (1, 2, 3, 4):
        dm = asm.build_dof_map(mesh, k)
        table = dm.cell_dofs
        for c in range(dm.n_cells):
            want = cell_scalar_dofs(mesh, dm, c)
            assert np.array_equal(table[c, :len(want)], want), (k, c)
            assert (table[c, len(want):] == -1).all(), (k, c)
        for got, want in zip(asm._boundary_scalar_data(mesh, dm, g),
                             boundary_scalar_data(mesh, dm, g)):
            assert np.array_equal(got, want), k


def test_omitted_g_is_zero_data_on_the_whole_boundary():
    # without g no DOF was constrained, and the system was singular
    mesh = geo.generate_mesh("hexagonal", 1)
    default = asm.assemble(mesh, 1)
    zero = asm.assemble(mesh, 1, g=_zero_g)
    _assert_identical(default, zero)
    assert np.array_equal(default.constrained, zero.constrained)
    assert np.array_equal(default.boundary_values, zero.boundary_values)
    assert asm.condition_number(default) == asm.condition_number(zero)


def test_zero_data_gives_zero_solution():
    mesh = geo.generate_mesh("voronoi", 1)
    sol = asm.solve_stokes(mesh, 1, g=_zero_g)
    assert np.abs(sol.ux).max() < 1e-12
    assert np.abs(sol.uy).max() < 1e-12
    assert np.abs(sol.p).max() < 1e-12
    assert np.abs(sol.bubbles).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_condensation_equivalence(k):
    mesh = geo.generate_mesh("hexagonal", 2)
    case = an.get_case("test1")
    cond = asm.assemble(mesh, k, f=case.forcing, g=case.velocity)
    sol_cond = asm.solve(cond)
    ux, uy, p, bubbles, n_full = uncondensed_solve(mesh, cond, case.forcing,
                                                   case.velocity)

    def rel(a, b):
        return np.linalg.norm(np.ravel(a) - np.ravel(b)) / np.linalg.norm(np.ravel(b))

    assert rel(np.r_[ux, uy], np.r_[sol_cond.ux, sol_cond.uy]) < 1e-10
    assert rel(p, sol_cond.p) < 1e-10
    assert rel(bubbles, sol_cond.bubbles) < 1e-10
    # condensation removes exactly the bubble unknowns, 2k+1 per cell and
    # component
    assert n_full - cond.n_dofs == len(mesh.cells) * 2 * (2 * k + 1)


def test_solver_residual_and_pressure_mean():
    mesh = geo.generate_mesh("voronoi", 1)
    case = an.get_case("test1")
    sol = asm.solve_stokes(mesh, 2, f=case.forcing, g=case.velocity)
    assert sol.residual <= 1e-10
    # discrete pressure mean: sum over cells of the projected pressure
    cell_dofs = sol.dof_map.cell_dofs
    total = 0.0
    for c, ctx in cell_elements(sol.batches):
        nk = pb.poly_dim(ctx.layout.k)
        phi = pb.evaluate(ctx.basis, table(ctx.basis, ctx.quad.points))
        ints = ctx.quad.weights @ phi[:, :nk]
        gd = cell_dofs[c, :ctx.layout.n_scalar]
        total += ints @ (ctx.pizero_k @ sol.p[gd])
    assert abs(total) < 1e-10


def test_matrix_symmetry_pattern():
    # sign-flipped pressure/multiplier rows make the reduced matrix symmetric
    mesh = geo.generate_mesh("hexagonal", 1)
    system = asm.assemble(mesh, 1, g=_zero_g)
    M = (sp.diags(system.signs) @ system.matrix).toarray()
    assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()


@pytest.mark.parametrize("family", ["hexagonal", "voronoi",
                                    "random_polygons", "diamond"])
@pytest.mark.parametrize("k", [1, 3])
def test_velocity_components_share_one_block(family, k):
    # the grad-grad form is diag(A_sc, A_sc): the free x-x and y-y blocks
    # of K are equal bit for bit, and K stores no x-y entry
    mesh = geo.generate_mesh(family, 2)
    system = asm.assemble(mesh, k, g=_zero_g)
    n_sc, free = system.dof_map.n_scalar, system.free
    nx = np.count_nonzero(free < n_sc)
    assert np.array_equal(free[nx:2 * nx], free[:nx] + n_sc)
    assert np.all(free[2 * nx:] >= 2 * n_sc)
    K = system.matrix
    xx, yy = K[:nx, :nx], K[nx:2 * nx, nx:2 * nx]
    for a in (xx, yy):
        a.sort_indices()
    assert np.array_equal(xx.indptr, yy.indptr)
    assert np.array_equal(xx.indices, yy.indices)
    assert xx.data.tobytes() == yy.data.tobytes()
    assert K[:nx, nx:2 * nx].nnz == 0 and K[nx:2 * nx, :nx].nnz == 0


def test_a_block_spd_after_elimination():
    mesh = geo.generate_mesh("hexagonal", 1)
    system = asm.assemble(mesh, 1, g=_zero_g)
    n_free_vel = np.sum(system.free < 2 * system.dof_map.n_scalar)
    A = system.matrix.toarray()[:n_free_vel, :n_free_vel]
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert eigs.min() > 0.0


class _TinySystem:
    """Minimal stand-in for condition-number unit checks."""

    def __init__(self, diag):
        self.matrix = sp.csc_matrix(np.diag(diag))
        self.signs = np.ones(len(diag))


def test_condition_number_identity():
    assert asm.condition_number(_TinySystem([1.0, 1.0, 1.0])) == pytest.approx(1.0)


def test_condition_number_diag():
    got = asm.condition_number(_TinySystem([1.0, 1e-6]))
    assert got == pytest.approx(1e6, rel=1e-9)


def test_condition_number_pinned_regression():
    # hexagonal level 1, k=1, alpha=1, orthonormal basis; deterministic
    mesh = geo.generate_mesh("hexagonal", 1)
    system = asm.assemble(mesh, 1, g=_zero_g, basis_kind="l2_orthonormal")
    got = asm.condition_number(system)
    assert got == pytest.approx(1546.2241757, rel=1e-6)


@pytest.fixture(scope="module")
def sweep_systems():
    """Condensed voronoi L1 (mesh seed 5) systems at every point of the
    alpha sweep, k=1-2, both bases; (label, system) pairs."""
    mesh = geo.generate_mesh("voronoi", 1, rng_seed=5)
    out = []
    for k in (1, 2):
        for basis in ("scaled_monomial", "l2_orthonormal"):
            base = asm.assemble(mesh, k, g=_zero_g, basis_kind=basis)
            out += [(f"{basis} k={k} alpha={alpha!r}",
                     asm.with_alpha(base, alpha))
                    for alpha in an.DEFAULT_ALPHAS]
    return out


def _assert_matches_dense_oracle(labelled_systems):
    # the smallest eigenvalue is only known to about eps |K|, so the
    # relative tolerance grows like eps * cond (the benchmark's bound)
    eps = np.finfo(float).eps
    for label, system in labelled_systems:
        want = dense_condition_number(system)
        got = asm.condition_number(system)
        assert abs(got - want) <= (1e-8 + 10 * eps * want) * want, \
            (label, got, want)


def test_condition_number_matches_dense_oracle(sweep_systems):
    _assert_matches_dense_oracle(sweep_systems)


@pytest.mark.parametrize("family", ["hexagonal", "voronoi",
                                    "random_polygons", "diamond"])
def test_condition_number_matches_dense_oracle_on_every_family(family):
    # L1, k=1-3, both bases, at both ends of the alpha sweep and at 1
    mesh = geo.generate_mesh(family, 1)
    _assert_matches_dense_oracle(
        (f"{basis} k={k} alpha={alpha!r}", asm.with_alpha(base, alpha))
        for k in (1, 2, 3)
        for basis in ("scaled_monomial", "l2_orthonormal")
        for base in [asm.assemble(mesh, k, g=_zero_g, basis_kind=basis)]
        for alpha in (1e-15, 1.0, 1e3))


def test_condition_number_refuses_a_spoiled_factor(monkeypatch):
    mesh = geo.generate_mesh("hexagonal", 1)
    system = asm.assemble(mesh, 1, g=_zero_g)
    calls = _spy_splu(monkeypatch, first=_negated_factor)
    with pytest.raises(RuntimeError, match="backward error"):
        asm.condition_number(system)
    assert calls == [asm.COND_FACTOR]


def test_condition_number_refuses_an_asymmetric_matrix():
    system = _TinySystem([1.0, 2.0, 3.0])
    system.matrix = sp.csc_matrix(np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError, match="symmetric"):
        asm.condition_number(system)


def _assert_identical(a, b):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a.matrix, name), getattr(b.matrix, name))
    for name in ("rhs", "free", "signs"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_with_alpha_matches_fresh_assembly():
    # with_alpha and assemble share one scatter, so the rebuilt
    # systems equal fresh assemblies bit for bit
    mesh = geo.generate_mesh("hexagonal", 1)
    case = an.get_case("test1")
    for k, beta_sharp, data in ((1, 0.0, dict(g=_zero_g)),
                                (2, 1.0, dict(f=case.forcing,
                                              g=case.velocity))):
        def build(alpha):
            config = StabilizationConfig(alpha=alpha, beta_sharp=beta_sharp)
            return asm.assemble(mesh, k, config=config, **data)

        base = build(1.0)
        _assert_identical(asm.with_alpha(base, 1e-3), build(1e-3))
        # with_alpha rewrites the pressure block of the matrix it is given:
        # a chain of rebuilds ends where one rebuild does
        once = asm.with_alpha(base, 1e3)
        _assert_identical(asm.with_alpha(asm.with_alpha(base, 1e-3), 1e3),
                          once)
        _assert_identical(once, build(1e3))


def test_assemble_streams_its_batches():
    # each batch is dropped once its blocks are written, and the system
    # keeps its record; bounds fixed before the first run of the streamed
    # assemble, against a peak of 41.6-44.7 MiB and 26-27 MiB live when
    # every batch was held
    case = an.get_case("test1")
    mesh = geo.generate_mesh("hexagonal", 3)
    tracemalloc.start()
    try:
        system = asm.assemble(mesh, 3, f=case.forcing, g=case.velocity)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(isinstance(r, vs.BatchRecord) for r in system.batches)
    assert peak <= 36 * 2 ** 20, peak / 2 ** 20
    assert live <= 20 * 2 ** 20, live / 2 ** 20


def test_solve_holds_no_longdouble_copy_of_the_matrix():
    # SuperLU's factors live outside tracemalloc; what it sees of solve is
    # the vectors, the velocity block sliced out of K and the block-diagonal
    # matrix of it and the preconditioner, where a long-double copy of K
    # alone takes 16 bytes per stored entry and a float copy 12
    case = an.get_case("test1")
    system = asm.assemble(geo.generate_mesh("hexagonal", 2), 3,
                          f=case.forcing, g=case.velocity)
    tracemalloc.start()
    try:
        sol = asm.solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.residual <= asm.RESIDUAL_BOUND
    assert peak <= 8 * system.matrix.nnz, peak / system.matrix.nnz


def test_solving_does_not_load_scipy_io():
    script = ("import sys; from polystokes import assembly as asm, geometry;"
              "asm.solve(asm.assemble(geometry.generate_mesh('hexagonal', 1),"
              " 1)); assert 'scipy.io' not in sys.modules")
    # the subprocess must import the same polystokes package as the tests
    src = os.path.dirname(os.path.dirname(os.path.abspath(asm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_solve_warns_on_bad_residual():
    mesh = geo.generate_mesh("hexagonal", 1)
    system = asm.assemble(mesh, 1, g=_zero_g)
    rhs = system.rhs.copy()
    rhs[0] = np.nan
    with pytest.warns(RuntimeWarning, match="residual"):
        asm.solve(replace(system, rhs=rhs))


def _spy_splu(monkeypatch, first=None):
    """Record the keyword options of every assembly.spla.splu call; the
    first call returns first(splu, matrix, **options) instead when first is
    given."""
    real = asm.spla.splu
    calls = []

    def spy(matrix, **options):
        calls.append(options)
        if first is not None and len(calls) == 1:
            return first(real, matrix, **options)
        return real(matrix, **options)

    monkeypatch.setattr(asm.spla, "splu", spy)
    return calls


# no pivoting on the symmetric minimum-degree ordering
SPD_FACTOR = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})


def _solve_quietly(system):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return asm.solve(system)


@pytest.fixture(scope="module")
def extreme_systems():
    """test1 systems where the no-pivot factor is least accurate: tiny alpha
    on the badly shaped random polygons, and the alpha and beta_sharp ends
    on hexagons; (label, alpha, system) triples."""
    case = an.get_case("test1")

    def build(mesh, k, beta_sharp):
        config = StabilizationConfig(beta_sharp=beta_sharp)
        return asm.assemble(mesh, k, f=case.forcing, g=case.velocity,
                            config=config)

    rp = build(geo.generate_mesh("random_polygons", 2, rng_seed=1), 3, 0.0)
    hexagons = geo.generate_mesh("hexagonal", 2)
    out = [("random_polygons L2 k=3", 1e-15, asm.with_alpha(rp, 1e-15))]
    for beta_sharp in (0.0, 1.0):
        hx = build(hexagons, 2, beta_sharp)
        out += [(f"hexagonal L2 k=2 beta_sharp={beta_sharp}", alpha,
                 asm.with_alpha(hx, alpha)) for alpha in (1e-15, 1.0, 1e3)]
    return out


def test_solve_symmetric_factor_at_the_extremes(extreme_systems, monkeypatch):
    # one SPD factor, of the velocity block and the preconditioner side by
    # side, without pivoting on the symmetric ordering: no warning at
    # either end
    for label, alpha, system in extreme_systems:
        calls = _spy_splu(monkeypatch)
        sol = _solve_quietly(system)
        assert calls == [SPD_FACTOR], label
        assert sol.residual <= asm.RESIDUAL_BOUND, (label, alpha)
        if alpha == 1.0:
            # the pressure is well determined: same solution as COLAMD
            # with partial pivoting (at tiny alpha only residuals tell)
            monkeypatch.undo()
            want = spla.splu(system.matrix).solve(system.rhs)
            got = np.r_[sol.ux, sol.uy, sol.p, sol.multiplier][system.free]
            assert np.linalg.norm(got - want) \
                <= 1e-10 * np.linalg.norm(want), label


@pytest.mark.parametrize("k", [1, 2])
def test_solve_refines_an_inconsistent_rhs(k, monkeypatch):
    # a random right-hand side, multiplier row included, is the load of no
    # Stokes problem; the multiplier row enters the pressure solve as a
    # mean-weight term, and PCG brings the residual within the bound
    mesh = geo.generate_mesh("voronoi", 1)
    base = asm.assemble(mesh, k, g=_zero_g)
    rng = np.random.default_rng(k)
    for alpha in (1e-6, 1e-2, 1.0):
        system = replace(asm.with_alpha(base, alpha),
                         rhs=rng.standard_normal(base.n_dofs))
        calls = _spy_splu(monkeypatch)
        sol = _solve_quietly(system)
        assert calls == [SPD_FACTOR], alpha
        assert sol.residual <= asm.RESIDUAL_BOUND, alpha


def _negated_factor(splu, matrix, **options):
    return splu(-matrix, **options)


def test_solve_warns_on_a_spoiled_factor(monkeypatch):
    # a wrong factor spoils the Schur complement through its velocity
    # block; the residual of the whole system shows it, and solve says so
    mesh = geo.generate_mesh("hexagonal", 1)
    case = an.get_case("test1")
    system = asm.assemble(mesh, 2, f=case.forcing, g=case.velocity)
    _spy_splu(monkeypatch, first=_negated_factor)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = asm.solve(system)
    assert not sol.residual <= asm.RESIDUAL_BOUND
    assert [str(w.message) for w in caught
            if "of the solve" in str(w.message)] == [
        f"relative residual {sol.residual:.3e} of the solve exceeds 1e-10"]


def test_zero_load_solves_to_zeros():
    # the benchmark's warm-up: f = g = 0, so the right-hand side is zero
    system = asm.assemble(geo.generate_mesh("hexagonal", 1), 1)
    assert not system.rhs.any()
    sol = _solve_quietly(system)
    for x in (sol.ux, sol.uy, sol.p, sol.bubbles):
        assert not x.any()
    assert sol.multiplier == sol.residual == 0.0
    assert sol.iterations == 0


@pytest.fixture(scope="module", params=["hexagonal", "voronoi",
                                        "random_polygons", "diamond"])
def family_systems(request):
    """test1 systems of one family at L1-L2, k=1-3, both bases, alpha=1;
    (label, system) pairs."""
    case = an.get_case("test1")
    out = []
    for level in (1, 2):
        mesh = geo.generate_mesh(request.param, level)
        for k in (1, 2, 3):
            for basis in ("scaled_monomial", "l2_orthonormal"):
                out.append((f"{request.param} L{level} k={k} {basis}",
                            asm.assemble(mesh, k, f=case.forcing,
                                         g=case.velocity, basis_kind=basis)))
    return out


def test_solve_agrees_with_the_direct_solve(family_systems):
    # the direct solve (one sparse LU of K, long-double refinement, COLAMD
    # fallback) is the reference; the bounds were set before the first run
    for label, base in family_systems:
        for alpha in (1e-6, 1.0, 1e3):
            system = asm.with_alpha(base, alpha)
            sol = _solve_quietly(system)
            want = direct_solve(system)
            n_sc = system.dof_map.n_scalar
            full = np.empty(system.dof_map.n_system)
            full[system.free] = want
            full[system.constrained] = system.boundary_values
            u, p = full[:2 * n_sc], full[2 * n_sc:3 * n_sc]
            assert np.abs(np.r_[sol.ux, sol.uy] - u).max() \
                <= 1e-10 * np.abs(u).max(), (label, alpha)
            assert np.abs(sol.p - p).max() <= 1e-9 * np.abs(p).max(), \
                (label, alpha)
            assert sol.residual <= asm.RESIDUAL_BOUND, (label, alpha)
            assert 1 <= sol.iterations <= 100 < asm.MAX_ITERATIONS, \
                (label, alpha)


def test_export_matrix(tmp_path):
    # the file lands at the path given, whatever its extension
    import scipy.io
    mesh = geo.generate_mesh("hexagonal", 1)
    system = asm.assemble(mesh, 1, g=_zero_g)
    for name in ("system.mtx", "K.txt"):
        path = tmp_path / name
        asm.export_matrix(system, path)
        back = scipy.io.mmread(path)
        assert np.abs((back.tocsc() - system.matrix)).max() == 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["K.txt",
                                                          "system.mtx"]



def test_reprs_do_not_grow_with_the_mesh():
    # the mesh and the vectors stay out of the reprs: from L1 to L3 only the
    # digits of the counts and of the scalar fields differ
    case = an.get_case("test1")
    lengths = []
    for level in (1, 3):
        system = asm.assemble(geo.generate_mesh("hexagonal", level), 2,
                              f=case.forcing, g=case.velocity)
        lengths.append((len(repr(system)), len(repr(_solve_quietly(system)))))
    (system_1, solution_1), (system_3, solution_3) = lengths
    assert abs(system_3 - system_1) <= 20
    assert abs(solution_3 - solution_1) <= 20
