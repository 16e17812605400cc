"""wwlab: numerical laboratory for weighted ergodic averages on finite systems.

The package is organized bottom-up:

- :mod:`wwlab.systems` — finite measure-preserving systems and observables;
- :mod:`wwlab.supbrackets` — certified two-sided brackets for trigonometric suprema;
- :mod:`wwlab.averages` — strong, weak, off-diagonal, and alternative-schedule
  uniformity averages built from cube products;
- :mod:`wwlab.recurrence` — uniform multiple-recurrence norms, polynomial-phase
  suprema, and return-times averages;
- :mod:`wwlab.boxes` — lattice box-family combinatorics with enumeration oracles;
- :mod:`wwlab.analysis` — decay fits, the named inequality checks, and the
  one-sided orbit Hilbert transforms;
- :mod:`wwlab.acceptance` — the thirteen-point verification battery;
- :mod:`wwlab.cli` — the ``wwlab`` command-line runner with its result cache.
"""

__version__ = "0.1.0"

from .systems import (
    FiniteSystem,
    Observable,
    Partition,
    build_system,
    character_observable,
    conditional_expectation,
    constant_observable,
    cyclic_shift,
    ghk_seminorm,
    identity_system,
    integrate,
    product_system,
    random_mean_zero,
    random_permutation,
    rotation_approx,
    skew_product,
    spectral_coefficient,
    tensor_observable,
    two_cell_parity_partition,
)
from .supbrackets import Bracket, sup_modulated_average, sup_norm_trig, sup_polyphase
from .averages import (
    CubeAssignment,
    ScheduleR,
    off_diagonal_average,
    weak_ww_average,
    ww_average,
    ww_average_alt,
)
from .recurrence import (
    ExponentVector,
    MrecBracket,
    PointwiseDominator,
    intermediate_F,
    multiple_recurrence_average,
    polyphase_mrec_sup,
    return_times_average,
    uniform_mrec_bracket,
)
from .boxes import (
    BoxFamily,
    cancellation_identity,
    exact_level_count,
    interchange_check,
    level_count_bruteforce,
    level_sweep,
)
from .analysis import (
    DecayFit,
    HilbertSums,
    HilbertVerdict,
    InequalityCheck,
    PhaseWeights,
    PrecsimWitness,
    ReturnTimesWeights,
    SeriesReport,
    available_checks,
    decay_fit,
    hilbert_criterion,
    hilbert_partial_sums,
    precsim_fit,
    run_named_check,
)
from ._util import BudgetExceeded, clear_memo

__all__ = [name for name in dir() if not name.startswith("_")]
