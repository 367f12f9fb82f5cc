"""Exact arithmetic for Gessel / super Catalan convolutions.

The package computes the number families (binomials, Catalan, super Catalan,
Gessel), their alternating binomial convolutions, and the M-sum calculus
that organizes those sums, all in unbounded integer arithmetic. The verify
module sweeps every identity and divisibility claim the library rests on
over bounded ranges; the paths module supplies an independent lattice-path
count for the Gessel numbers; the cli module exposes all of it.
"""

from __future__ import annotations

from .closed_forms import (
    FAMILY_PARAMS,
    ClosedFormFamily,
    closed_form,
    msum_counterpart,
)
from .exact import (
    NonDivisible,
    binomial,
    catalan,
    central_binomial,
    decimal,
    exact_div,
    gessel,
    half_super_catalan,
    lcm,
    parse_decimal,
    smallest_clearing_factor,
    super_catalan,
)
from .kernels import (
    Kernel,
    KernelDomainError,
    KernelFamily,
    binomial_pair_kernel,
    central_kernel,
    custom_kernel,
    gessel_kernel,
    half_supercat_kernel,
    plain_kernel,
    random_kernel,
    rising_kernel,
    supercat_kernel,
    with_bump,
)
from .paths import (
    ENUMERATION_LIMIT,
    BoardTooLarge,
    PathSpec,
    TouchSet,
    count_paths,
    enumerate_paths,
    gessel_path_spec,
    prefix_path_spec,
)
from .sums import (
    direct_sum,
    gessel_convolution,
    m_sum,
    m_sum_lift,
    m_sum_lift_vector,
    m_sum_vector,
    quarter_psi,
    supercat_convolution,
    theorem2_transform,
    theorem2_transform_vector,
)
from .verify import (
    FUZZ_KERNEL_COUNT,
    RangeTooLarge,
    SweepRange,
    UnknownSuite,
    VerificationReport,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_suite,
    suite_names,
)

__version__ = "0.1.0"

__all__ = [
    "BoardTooLarge",
    "ClosedFormFamily",
    "ENUMERATION_LIMIT",
    "FAMILY_PARAMS",
    "FUZZ_KERNEL_COUNT",
    "Kernel",
    "KernelDomainError",
    "KernelFamily",
    "NonDivisible",
    "PathSpec",
    "RangeTooLarge",
    "SweepRange",
    "TouchSet",
    "UnknownSuite",
    "VerificationReport",
    "binomial",
    "binomial_pair_kernel",
    "catalan",
    "central_binomial",
    "central_kernel",
    "closed_form",
    "count_paths",
    "custom_kernel",
    "decimal",
    "direct_sum",
    "enumerate_paths",
    "exact_div",
    "gessel",
    "gessel_convolution",
    "gessel_kernel",
    "gessel_path_spec",
    "half_super_catalan",
    "half_supercat_kernel",
    "lcm",
    "m_sum",
    "m_sum_lift",
    "m_sum_lift_vector",
    "m_sum_vector",
    "msum_counterpart",
    "parse_decimal",
    "plain_kernel",
    "prefix_path_spec",
    "quarter_psi",
    "random_kernel",
    "reports_to_csv",
    "reports_to_json",
    "rising_kernel",
    "run_all",
    "run_suite",
    "smallest_clearing_factor",
    "suite_names",
    "super_catalan",
    "supercat_convolution",
    "supercat_kernel",
    "theorem2_transform",
    "theorem2_transform_vector",
    "with_bump",
]
