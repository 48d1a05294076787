"""entrokit: covering/packing oracles, explicit Lipschitz packing families,
Karhunen-Loeve embeddings, and bit-quantized output-averaged Fourier
neural operators, all at desk scale with reproducible seeds."""

__version__ = "0.1.0"

from .errors import (BoundNotReached, BudgetExceeded, ChannelMismatch,
                     ConfigError, DimensionExceedsTruncation, EntrokitError,
                     EpsilonTooLarge, FamilyTooLarge, GridMisaligned,
                     IncompatibleDepth, LayoutMismatch, NoPacking,
                     OutOfRange, ResolutionTooLow, SampleMismatch,
                     SizeLimitExceeded, TargetTooSmall)
from .metricspace import (CoverResult, FiniteMetricSpace, LpSampleNorm,
                          PackResult, SampledFunctional, SandwichReport,
                          code_length_report, dictionary_minimax_error,
                          exact_covering_number, exact_packing_number,
                          greedy_covering, greedy_packing,
                          minimax_code_length, sandwich_check)
from .packing import (BumpFamily, HatFamily, SignCode, build_bump_family,
                      build_hat_family, entropy_lower_bound_uniform,
                      gilbert_varshamov, greedy_sign_code,
                      select_embedding_dimension)
from .randomfield import (EmbeddedFunctional, GridFunction01, IsometryReport,
                          KLMeasure, McDraws, McEstimate, cdf_map, embed,
                          isometry_check, lp_norm_mc, sample,
                          synthesize_torus, transport_quotient_max)
from .fno import (ACTIVATIONS, FnoHyper, FnoParams, GridFunction, ParamCount,
                  canonical_modes, empirical_lipschitz, forward, param_count,
                  random_grid_function, random_inputs, super_arch,
                  zero_pad_embed)
from .quantizer import (BitBudget, LipBoundInputs, QuantCertificate,
                        QuantGrid, SweepRow, accuracy_bits_sweep,
                        bit_budget_asymptotic, bit_budget_sweep, calibrate_c,
                        certify_quantization, quantize, theoretical_lip_bound)
from .chains import (ResultTable, load_config, run_experiment,
                     validate_config)
