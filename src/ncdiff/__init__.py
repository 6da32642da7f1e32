"""Inner-derivation differential calculus on noncommutative algebras.

Carriers: q-commuting unitary lattices (:mod:`ncdiff.qlattice`), dense
matrix algebras (:mod:`ncdiff.matrix_algebra`) and Cuntz-Krieger graph
algebras (:mod:`ncdiff.graph_algebra`).  Over any of them,
:mod:`ncdiff.forms` builds graded differential forms from a commuting
differential basis; :mod:`ncdiff.dirichlet` the Laplacian, heat semigroup
and Dirichlet-form identities; :mod:`ncdiff.cohomology` the de Rham and
Dolbeault dimension reports; :mod:`ncdiff.deformation` the classical-limit
experiments.
"""

from .carrier import commutator
from .qlattice import (QAlgebraSpec, QElement, SpecMismatchError, clock_shift_rep,
                       heisenberg_spec, inner, normal_order, tau, theta_hat,
                       torus_spec, torus_spec_2n, weyl_lattice_spec)
from .matrix_algebra import MatElement, offdiag, projection_basis, trace
from .graph_algebra import (DirectedGraph, GraphElement, Path,
                            full_isometry_criterion, h0_report, is_closed,
                            parse_graph, vertex_commutator, vertex_projection)
from .forms import (BasisConditionError, BasisModeError, DifferentialBasis,
                    DifferentialForm, delta, grade, partial, partial_star, star,
                    wedge)
from .dirichlet import (audit_semigroup, carre_du_champ, choi_matrix,
                        dirichlet_form, heat_semigroup, isometry_check, laplacian,
                        locality_isometry, trotter_check)
from .cohomology import (ComplexReport, GraphCarrierBasis, MatrixCarrierBasis,
                         QMonomialBasis, boundary_matrix, c00_membership,
                         deRham_dims, deRham_dims_truncated, dolbeault_dims,
                         fuglede_putnam_check)
from .deformation import (DeformationSweep, heisenberg_derivations,
                          heisenberg_limit_sweep, plane_limit_sweep,
                          plane_partial_sweep, torus_limit_sweep)

__version__ = "0.1.0"
