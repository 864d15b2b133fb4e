"""Signed determinantal point processes.

Construct and validate signed kernels, sample the processes exactly,
estimate principal minors from samples, and reconstruct a kernel from
minors of orders 1..4 (with the full solution set) when the kernel is
dense, from O(N^2) of them: the triangles at one hub and the subsets
that join them.  Decisions the minors cannot tell apart are skipped,
which can enlarge the solution set.

The PMA stages are public as the batched array functions that
``solve_pma`` composes: ``recover_skeleton``, ``traveling_sums`` and
``match_four_cycles``.  ``solve_pma`` solves the GF(2) sign system of
its cycle rows with one internal function, ``gf2.solve_cycles``: a
parity union-find on the hub gauge, then one eliminate-and-substitute
step on the rows it leaves.  ``GF2Solution`` describes the solutions.
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
from .gf2 import GF2Solution
from .moments import (
    KernelMinors,
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
    is_conjugate,
    match_four_cycles,
    pma_equivalent,
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
