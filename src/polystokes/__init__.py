"""Mixed virtual element solver for the 2D Stokes problem on polygonal meshes."""

from .geometry import (PolygonalMesh, MeshError, build_mesh, generate_mesh,
                       export_mesh, import_mesh, validate_geometry,
                       polygon_quadrature, edge_quadrature, MESH_FAMILIES)
from .polybasis import PolyBasis, build_basis, poly_dim
from .vemspace import (BatchRecord, ElementBatch, ElementContext,
                       build_batches, build_element, interpolate_scalar)
from .stokes_local import StabilizationConfig, build_blocks
from .assembly import (GlobalSystem, Solution, assemble, solve,
                       solve_stokes, condition_number, export_matrix,
                       with_alpha)
from .analysis import (ManufacturedCase, ErrorReport, get_case, compute_errors,
                       run_convergence, run_alpha_sweep, write_csv)

__version__ = "0.1.0"
