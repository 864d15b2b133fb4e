"""Signed determinantal point processes.

Construct and validate signed kernels, sample the processes exactly,
estimate principal minors from samples, and reconstruct a kernel from
minors of orders 1..4 (with the full solution set) when the kernel is
dense; 4-sets whose sign patterns the minors cannot tell apart are
skipped, which enlarges the solution set.

The PMA stages are public only as the batched array functions that
``solve_pma`` composes: ``recover_skeleton``, ``traveling_sums`` and
``match_four_cycles``.  The one-item entry points ``extract_pi``,
``disambiguate_four_cycles`` and ``build_sign_system``, the
``Skeleton.mag``/``eps``/``diag`` accessors and ``GenericityError``
were removed on purpose.
"""

from .errors import (
    AmbiguousSignWarning,
    CapabilityError,
    ConditioningError,
    DimensionError,
    FormatError,
    GenerationError,
    InadmissibleKernelError,
    InconsistentMinorsError,
    MissingMinorError,
    NotDenseError,
    SamplingError,
    SignedClassError,
    SignedDppError,
    SingularMatrixError,
)
from .kernel import (
    SignedKernel,
    complement_kernel,
    conditional_kernel,
    enumerate_pmf,
    generate_admissible,
    is_admissible,
    is_constant_size,
    k_to_l,
    kernel_from_json,
    kernel_to_json,
    l_to_k,
    marginal_kernel,
    pair_covariance,
    pmf,
    principal_minor,
    read_kernel,
    size_polynomial,
    size_variance,
    write_kernel,
)
from .graph import (
    SignedGraph,
    epsilon_of_cycle,
    pi_of_cycle,
    pi_of_subset,
    pma_equivalent,
    pma_equivalent_structural,
    positive_four_cycles,
    positive_triangles,
    signed_adjacency,
    travelings,
)
from .gf2 import GF2Solution, GF2System, bit_to_sign, gf2_solve, sign_to_bit
from .moments import (
    MinorList,
    estimate_minor,
    estimate_required_minors,
    exact_minors,
    minors_from_json,
    minors_to_json,
    read_minors,
    write_minors,
)
from .pma import (
    PMASolution,
    Skeleton,
    VerifyReport,
    describe_solution_set,
    match_four_cycles,
    recover_skeleton,
    solve_pma,
    traveling_sums,
    verify,
)
from .sampler import (
    SampleBatch,
    read_samples,
    sample_enumerate,
    sample_sequential,
    sample_sequential_batch,
    sequential_path_probabilities,
    write_samples,
)

__version__ = "0.1.0"
