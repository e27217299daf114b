"""Range-Doppler analysis of periodic binary transmission masks.

Half-duplex operation gates a unit-energy symbol stream with an N-periodic
0/1 mask and listens in the complementary slots. This package constructs
mask families (Singer difference sets, combs, random), evaluates the
closed-form expected squared range-Doppler response, validates it with a
symbol-level Monte Carlo oracle, and certifies the sidelobe bounds and
optimality properties of the mask families.
"""

from .masks import (
    Mask,
    CdsCheck,
    singer_mask,
    comb_mask,
    random_mask,
    custom_mask,
    cyclic_shift,
    verify_cds,
    comb_spacing,
    parse_mask,
    serialize_mask,
    load_mask,
    save_mask,
    from_spec,
)
from .spectra import (
    GammaSequence,
    autocorr,
    cross_term_row,
    cross_term_matrix,
    gamma,
    s_kn,
    s_kmn,
    doppler_energy,
    doppler_energy_f,
)
from .response import (
    ScenarioParams,
    ResponseGrid,
    mainlobe,
    expected_response,
    moderate_slice,
    grating_lobes,
    build_grid,
)
from .montecarlo import (
    Constellation,
    EchoScenario,
    McEstimate,
    McBudgetError,
    make_constellation,
    custom_constellation,
    draw_stream,
    correlate,
    estimate,
    validate_grid,
    expectation_by_double_sum,
)
from .metrics import (
    FluctuationStats,
    DopplerSumBounds,
    MeanDopplerSidelobe,
    MaskMetrics,
    mainlobe_fluctuation,
    peak_range_sidelobe,
    avg_range_sidelobe,
    doppler_sidelobe_sum,
    worst_case_doppler_sum,
    cpi_doppler_sum,
    monotonicity_check,
    mean_doppler_sidelobe,
    metrics_report,
)

__version__ = "0.1.0"
