#!/usr/bin/env python3
"""SHA-256 digests of the solver's outputs, for bit-identity checks.

Prints one line per (family, level, k, basis) and output group: the cell
blocks, the gathered system (k0, c_values, rhs, free, signs; k0 is the
alpha-free matrix, hashed as the matrix's data with c_base put back at
c_positions, then its indices and indptr), the solution (ux, uy, p and the
recovered bubbles) and the ErrorReport floats of the `test1` solve, then
the `cond` of every point of the benchmark's alpha sweep (voronoi L1, mesh
seed 0, k=1-2, both bases, the 13 default alphas), read from the CLI's
sweep CSV below, then one line per (family, level) for the mesh itself
(vertices, rings, cell_edges, edges, boundary flags, cell areas and
diameters, h).  The next two lines are the full sha256 of two CLI CSVs,
which the script writes through `polystokes.cli.main` into a temporary
directory, as

    polystokes convergence --cases test1 --families hexagonal \
        --levels 1..3 --k 1,2,3 --no-timings --output conv.csv
    polystokes alpha-sweep --family voronoi --level 1 --k 1..2 \
        --output sweep.csv

The last lines, one per (family, level), digest the cell centroids that
the mesh stores (`cell_centroids`).  They come after all the others, so the
lines before them are those that earlier versions of this script printed;
run on any tree whose meshes store `cell_centroids`, the script prints the
same centroid lines as long as the meshes keep their bits.

Run it on two checkouts with one BLAS thread and compare the outputs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/output_digests.py

With --compare FILE, where FILE holds the output of an earlier run (for
example the other checkout's), the script prints the same lines and then
writes to stderr one count of changed lines per output group (blocks,
system, solution, errors, cond, mesh, centroids, cli).  A line counts as
changed when FILE holds a different value for its key, all of its words
but the last, or no line of that key.  The exit status is then 1 if any
line changed and 0 if none did:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/output_digests.py \
        --compare parent.txt > new.txt

For the cond group it then writes the largest move of a condition number
κ that FILE also holds, as a fraction of the benchmark's bound on it,
(1e-8 + 10 eps κ) κ with κ FILE's value: the lines carry κ's repr, so
the moves are exact.

The cell blocks are rebuilt from the mesh, with build_element and
build_batches, since the system keeps only a record of each batch, and
hashed cell by cell without their zero padding, over both velocity
components: the library stores one component's blocks, A_sc and Ab_sc,
and the divergence blocks and loads per component, and the script joins
them as A_u = diag(A_sc, A_sc), A_b = diag(Ab_sc, Ab_sc),
B_u = [B_x | B_y], B_b = [Bb_x | Bb_y], F_u = [F_x, F_y] and
F_b = [Fb_x, Fb_y].  Joining
copies every entry exactly, so these lines equal those of trees that
stored the joined blocks.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import pathlib
import sys
import tempfile

import numpy as np

from polystokes import (assemble, build_batches, build_blocks, build_element,
                        compute_errors, generate_mesh, get_case, solve)
from polystokes.cli import main as cli_main

FAMILIES = ("hexagonal", "voronoi", "random_polygons", "diamond")
LEVELS = (1, 2)
KS = (1, 2, 3)
BASES = ("scaled_monomial", "l2_orthonormal")
# the output groups, named by the word before each line's value (cli for
# the CSV lines)
GROUPS = ("blocks", "system", "solution", "errors", "cond", "mesh",
          "centroids", "cli")
# the CLI arguments of the two CSVs, each ending in --output <name>
CLI_CSVS = {
    "conv.csv": ["convergence", "--cases", "test1", "--families", "hexagonal",
                 "--levels", "1..3", "--k", "1,2,3", "--no-timings"],
    "sweep.csv": ["alpha-sweep", "--family", "voronoi", "--level", "1",
                  "--k", "1..2"],
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def mesh_digest(mesh):
    return digest(mesh.vertices, *mesh.cells, *mesh.cell_edges, mesh.edges,
                  mesh.boundary_vertex_flags, mesh.boundary_edge_flags,
                  mesh.cell_areas, mesh.cell_diameters, mesh.h)


def cli_csv(args, name):
    """The bytes of the CSV that the CLI writes for args, in a temporary
    directory; its "wrote ..." line is not printed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / name
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main([*args, "--output", str(path)])
        if status != 0:
            raise RuntimeError(f"polystokes {' '.join(args)} exited {status}")
        return path.read_bytes()


def alpha_free(system):
    """The data, indices and indptr of the alpha-free matrix k0: the
    matrix's data with c_base put back at c_positions, on its pattern."""
    data = system.matrix.data.copy()
    data[system.c_positions] = system.c_base
    return data, system.matrix.indices, system.matrix.indptr


def diag2(a):
    """diag(a, a)."""
    zero = np.zeros_like(a)
    return np.block([[a, zero], [zero, a]])


def cell_blocks(mesh, k, basis, config, forcing):
    """Every cell's blocks, unpadded, in cell order: A_u, A_b, B_u, B_b,
    C_p, mean_weights, F_u and F_b, joined over both components."""
    batches = build_batches([build_element(mesh, c, k, basis_kind=basis)
                             for c in range(mesh.n_cells)])
    b = build_blocks(batches, config, forcing)
    layouts = {int(c): batch.layout for batch in batches
               for c in batch.cells}
    for c in range(len(layouts)):
        n = layouts[c].n_scalar
        yield from (diag2(b.A_sc[c, :n, :n]), diag2(b.Ab_sc[c]),
                    np.hstack([b.B_x[c, :n, :n], b.B_y[c, :n, :n]]),
                    np.hstack([b.Bb_x[c, :n], b.Bb_y[c, :n]]),
                    b.C_p[c, :n, :n], b.mean_weights[c, :n],
                    np.concatenate([b.F_x[c, :n], b.F_y[c, :n]]),
                    np.concatenate([b.Fb_x[c], b.Fb_y[c]]))


def lines():
    """The output lines, in order, as they are computed."""
    case = get_case("test1")
    meshes = []
    for family in FAMILIES:
        for level in LEVELS:
            mesh = generate_mesh(family, level)
            meshes.append((f"{family} L{level}", mesh))
            for k in KS:
                for basis in BASES:
                    system = assemble(mesh, k, f=case.forcing,
                                      g=case.velocity, basis_kind=basis)
                    sol = solve(system)
                    rep = compute_errors(sol, case)
                    tag = f"{family} L{level} k={k} {basis}"
                    blocks = cell_blocks(mesh, k, basis, system.config,
                                         case.forcing)
                    yield f"{tag} blocks {digest(*blocks)}"
                    yield f"{tag} system " + digest(
                        *alpha_free(system), system.c_values,
                        system.rhs, system.free, system.signs)
                    yield f"{tag} solution " + digest(sol.ux, sol.uy, sol.p,
                                                      sol.bubbles)
                    yield f"{tag} errors " + digest(np.array(
                        [rep.err0_u, rep.err1_u, rep.err0_p]))
    csvs = {name: cli_csv(args, name) for name, args in CLI_CSVS.items()}
    # the sweep CSV holds each float as its repr, the form these lines print
    for row in csv.DictReader(io.StringIO(csvs["sweep.csv"].decode())):
        yield (f"alpha_sweep voronoi L1 k={row['k']} {row['basis']} "
               f"alpha={row['alpha']} cond {row['cond']}")
    for tag, mesh in meshes:
        yield f"{tag} mesh {mesh_digest(mesh)}"
    for name, data in csvs.items():
        yield f"cli {name} {hashlib.sha256(data).hexdigest()}"
    for tag, mesh in meshes:
        yield f"{tag} centroids {digest(mesh.cell_centroids)}"


def group(line):
    """The output group of a line: cli, or the word before its value."""
    words = line.split()
    return "cli" if words[0] == "cli" else words[-2]


def compare(lines, path):
    """Write to stderr, for each output group, how many of the lines differ
    from the line of the same key (all words but the value) in the file at
    path; a key that the file lacks counts as changed.  Then write the
    largest move of a cond line's κ, as a fraction of its bound.  Returns
    the number of changed lines over all groups."""
    with open(path) as fh:
        reference = dict(line.rsplit(" ", 1) for line in fh.read().splitlines())
    changed, total = dict.fromkeys(GROUPS, 0), dict.fromkeys(GROUPS, 0)
    cond_move = 0.0
    for line in lines:
        key, value = line.rsplit(" ", 1)
        total[group(line)] += 1
        changed[group(line)] += reference.get(key) != value
        if group(line) == "cond" and key in reference:
            cond_move = max(cond_move, cond_bound_fraction(
                float(value), float(reference[key])))
    for name in GROUPS:
        print(f"{name}: {changed[name]} of {total[name]} lines changed",
              file=sys.stderr)
    print(f"cond: largest move {cond_move:.3g} of (1e-8 + 10 eps κ) κ",
          file=sys.stderr)
    return sum(changed.values())


def cond_bound_fraction(new, old):
    """|new - old| as a fraction of the benchmark's bound on a condition
    number, (1e-8 + 10 eps old) old."""
    bound = (1e-8 + 10.0 * np.finfo(float).eps * old) * old
    return abs(new - old) / bound


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="an earlier output of this script: after the "
                             "lines, write to stderr the count of changed "
                             "lines per output group and the largest "
                             "move of a condition number, and exit 1 if "
                             "any line changed")
    args = parser.parse_args(argv)
    out = []
    for line in lines():
        print(line)
        out.append(line)
    if args.compare:
        return 1 if compare(out, args.compare) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
