"""Manifestly covariant spinor machinery for Bargmann-Wigner fields.

Spin-frames, Pauli-Lubanski projectors, direction-independent norms, and
Wigner-amplitude synthesis and extraction for arbitrary spin, with a
verification harness that certifies the underlying identities at machine
precision.
"""

from . import core, errors
from .bw import (Amplitudes, BWComponent, FixedList, NullOmega, RandomTimelike,
                 StandardTime, contract_T, extract, extract_massive,
                 field_equation_residual_massive, helicity_residual_massless,
                 hertz_psi, norm_integrand, standard_bw_integrand, synth,
                 synth_massive, synth_massless, transform_component, valences,
                 wigner_state)
from .core import (lorentz_from_sl2c, lower_spinor, minkowski, raise_spinor,
                   random_future_momentum, random_sl2c, random_spinor,
                   trace_reversal_residual, vector_to_dyad, dyad_to_vector)
from .dirac import (dirac_current, dirac_norm_integrand, dirac_solution,
                    gamma_set)
from .frames import (SpinFrame, frame_for, frame_massive, frame_massless,
                     frame_residuals)
from .maxwell import (em_spinor, gk_norm_integrand, phi_from_potential,
                      stress_tensor)
from .multispinor import SymMultiSpinor
from .pauli_lubanski import (PLOperator, chi_basis, combined_projectors,
                             energy_projectors, pl_eigen_relations_residual,
                             pl_eigenvalues, pl_momentum_rep, pl_project,
                             pl_spin_projectors)
from .quadrature import (GaussianPacket, ShellGrid, build_grid, evaluate_norm,
                         pairwise_sum)

__version__ = "0.1.0"
