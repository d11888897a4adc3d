"""Command-line interface: mesh tools, single solves, and experiment sweeps.

All subcommands use long-form flags only and write CSV/JSON artifacts;
identical invocations produce byte-identical outputs (pass --no-timings to
zero out the wall-time column of convergence tables).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, assembly, geometry
from .stokes_local import StabilizationConfig
from .vemspace import check_degree

BASIS_KINDS = {"monomial": "scaled_monomial", "ortho": "l2_orthonormal"}


def _parse_int_list(text):
    """Parse '1,2,5' or '1..4' into a list of ints; a reversed range such
    as '3..1' raises ValueError instead of giving an empty list."""
    if ".." in text:
        lo, hi = text.split("..")
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return [int(t) for t in text.split(",")]


def _basis_kind(name):
    """The library's basis kind for a --basis name."""
    if name not in BASIS_KINDS:
        raise ValueError(f"unknown basis {name!r}; choose from "
                         f"{', '.join(sorted(BASIS_KINDS))}")
    return BASIS_KINDS[name]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polystokes",
        description="Mixed virtual element Stokes solver on polygonal meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    mesh_p = sub.add_parser("mesh", help="generate or validate meshes")
    mesh_sub = mesh_p.add_subparsers(dest="mesh_command", required=True)

    gen = mesh_sub.add_parser("generate", help="generate a mesh and write JSON")
    gen.add_argument("--family", required=True, choices=geometry.MESH_FAMILIES)
    gen.add_argument("--level", required=True, type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)

    chk = mesh_sub.add_parser("check", help="validate a mesh and print a report")
    src = chk.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="mesh JSON file")
    src.add_argument("--family", choices=geometry.MESH_FAMILIES)
    chk.add_argument("--level", type=int, default=1)
    chk.add_argument("--seed", type=int, default=0)

    slv = sub.add_parser("solve", help="solve one manufactured case")
    slv.add_argument("--case", required=True,
                     help="test1, test2 or patch (patch adapts to --k)")
    slv.add_argument("--family", required=True, choices=geometry.MESH_FAMILIES)
    slv.add_argument("--level", required=True, type=int)
    slv.add_argument("--k", required=True, type=int)
    slv.add_argument("--alpha", type=float, default=1.0)
    slv.add_argument("--beta-sharp", type=float, default=0.0)
    slv.add_argument("--basis", choices=sorted(BASIS_KINDS),
                     help="polynomial basis (default: the library's, monomial)")
    slv.add_argument("--seed", type=int, default=0)
    slv.add_argument("--dump-matrix", metavar="PATH",
                     help="write the reduced system in Matrix Market format")

    conv = sub.add_parser("convergence", help="mesh-refinement error study")
    conv.add_argument("--cases", required=True,
                      help="comma list, e.g. test1,test2")
    conv.add_argument("--families", required=True,
                      help="comma list of mesh families")
    conv.add_argument("--levels", required=True,
                      help="comma list or range, e.g. 1,2,3 or 1..4")
    conv.add_argument("--k", required=True, help="comma list of degrees")
    conv.add_argument("--alpha", type=float, default=1.0)
    conv.add_argument("--basis", choices=sorted(BASIS_KINDS),
                      help="polynomial basis (default: the library's, monomial)")
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--no-timings", action="store_true",
                      help="write 0.0 in the seconds column (determinism)")
    conv.add_argument("--output", required=True)

    swp = sub.add_parser("alpha-sweep", help="conditioning vs stabilization")
    swp.add_argument("--family", required=True, choices=geometry.MESH_FAMILIES)
    swp.add_argument("--level", required=True, type=int)
    swp.add_argument("--k", required=True, help="comma list of degrees")
    swp.add_argument("--basis", default="monomial,ortho",
                     help="comma list among monomial,ortho")
    swp.add_argument("--alphas", default=None,
                     help="comma list of stabilization weights")
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--output", required=True)
    return parser


def _basis_kwargs(args):
    """basis_kind only when --basis was given, so the library default holds."""
    return {} if args.basis is None else {"basis_kind": BASIS_KINDS[args.basis]}


def _cmd_mesh(args):
    if args.mesh_command == "generate":
        mesh = geometry.generate_mesh(args.family, args.level,
                                      rng_seed=args.seed)
        geometry.export_mesh(mesh, args.output)
        print(f"wrote {args.output}: {mesh.n_vertices} vertices, "
              f"{mesh.n_edges} edges, {mesh.n_cells} cells, h={mesh.h:.6g}")
        return 0
    if args.input:
        mesh = geometry.import_mesh(args.input)
    else:
        mesh = geometry.generate_mesh(args.family, args.level,
                                      rng_seed=args.seed)
    report = geometry.validate_geometry(mesh)
    print(f"vertices={mesh.n_vertices} edges={mesh.n_edges} "
          f"cells={mesh.n_cells} h={mesh.h:.6g}")
    print(f"min star ratio={np.min(report.star_ratio):.6g} "
          f"min distance ratio={np.min(report.min_distance_ratio):.6g}")
    print(f"star violations={np.count_nonzero(report.star_violations)} "
          f"distance violations={np.count_nonzero(report.distance_violations)} "
          f"(STAR_RATIO_MIN={geometry.STAR_RATIO_MIN:g} "
          f"DISTANCE_RATIO_MIN={geometry.DISTANCE_RATIO_MIN:g})")
    return 0


def _cmd_solve(args):
    case = analysis.case_for(args.case, args.k)
    # the weights and the degree are checked before the mesh is generated
    config = StabilizationConfig(alpha=args.alpha, beta_sharp=args.beta_sharp)
    check_degree(args.k)
    mesh = geometry.generate_mesh(args.family, args.level, rng_seed=args.seed)
    system = assembly.assemble(mesh, args.k, f=case.forcing, g=case.velocity,
                               config=config, **_basis_kwargs(args))
    if args.dump_matrix:
        assembly.export_matrix(system, args.dump_matrix)
    sol = assembly.solve(system)
    rep = analysis.compute_errors(sol, case)
    print(f"case={case.name} family={args.family} level={args.level} "
          f"k={args.k} n_dofs={sol.n_dofs}")
    print(f"err0_u={rep.err0_u:.6e} err1_u={rep.err1_u:.6e} "
          f"err0_p={rep.err0_p:.6e}")
    print(f"residual={sol.residual:.3e} iterations={sol.iterations} "
          f"multiplier={sol.multiplier:.3e}")
    return 0


def _cmd_convergence(args):
    rows = analysis.run_convergence(
        args.families.split(","), _parse_int_list(args.levels),
        _parse_int_list(args.k), args.cases.split(","), alpha=args.alpha,
        rng_seed=args.seed, timings=not args.no_timings, **_basis_kwargs(args))
    analysis.write_csv(args.output, rows, analysis.CONVERGENCE_FIELDS)
    print(f"wrote {args.output}: {len(rows)} rows")
    return 0


def _cmd_alpha_sweep(args):
    kinds = tuple(_basis_kind(b) for b in args.basis.split(","))
    alphas = (tuple(float(t) for t in args.alphas.split(","))
              if args.alphas is not None else analysis.DEFAULT_ALPHAS)
    rows = analysis.run_alpha_sweep(args.family, args.level,
                                    _parse_int_list(args.k), alphas=alphas,
                                    basis_kinds=kinds, rng_seed=args.seed)
    analysis.write_csv(args.output, rows, analysis.ALPHA_FIELDS)
    print(f"wrote {args.output}: {len(rows)} rows")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"mesh": _cmd_mesh, "solve": _cmd_solve,
                "convergence": _cmd_convergence,
                "alpha-sweep": _cmd_alpha_sweep}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # MeshError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
