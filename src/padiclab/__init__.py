"""padiclab: exact p-adic approximants, limits, and digit grids.

Everything is finite precision and exact: a value is a congruence class
modulo base**precision, and every operation states how many digits of
its result are known.
"""

from .analysis import (
    euler_phi_prime_power,
    exp_series_coeffs,
    is_prime,
    multiplicative_order,
    padic_log,
    teichmuller,
)
from .core import (
    PadicApprox,
    PadicScalar,
    base_multiplicity,
    digit_string,
    padic_from_integer,
    padic_from_rational,
    valuation_and_norm,
)
from .grids import (
    DigitGrid,
    emit_image,
    figure_grid,
    grid_history,
    grid_power_tower,
    grid_powers,
    grid_real_rows,
    read_pnm,
    real_binary_expansion,
    render_pnm,
)
from .sequences import (
    SequenceSpec,
    bell_mod,
    catalan_exact,
    fibonacci_mod,
    legendre_valuation,
    motzkin_exact,
    normalized_factorial_term,
    odd_factorial_mod,
    parse_sequence_spec,
    power_tower_term,
    sequence_term,
)
from .shear import (
    SENTINEL,
    ExtractionError,
    LimitReport,
    extract_coefficients,
    limit_detect,
    shear_rows,
)

__version__ = "0.1.0"

__all__ = [
    "DigitGrid",
    "ExtractionError",
    "LimitReport",
    "PadicApprox",
    "PadicScalar",
    "SENTINEL",
    "SequenceSpec",
    "base_multiplicity",
    "bell_mod",
    "catalan_exact",
    "digit_string",
    "emit_image",
    "euler_phi_prime_power",
    "exp_series_coeffs",
    "extract_coefficients",
    "fibonacci_mod",
    "figure_grid",
    "grid_history",
    "grid_power_tower",
    "grid_powers",
    "grid_real_rows",
    "is_prime",
    "legendre_valuation",
    "limit_detect",
    "motzkin_exact",
    "multiplicative_order",
    "normalized_factorial_term",
    "odd_factorial_mod",
    "padic_from_integer",
    "padic_from_rational",
    "padic_log",
    "parse_sequence_spec",
    "power_tower_term",
    "read_pnm",
    "real_binary_expansion",
    "render_pnm",
    "sequence_term",
    "shear_rows",
    "teichmuller",
    "valuation_and_norm",
]
