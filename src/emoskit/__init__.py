"""emoskit: EMOS postprocessing of ensemble temperature forecasts.

Calibrates raw NWP ensembles into Gaussian predictive distributions by CRPS
minimization, combines two models into one stream with diagnosable weights,
blends the combination seamlessly into the longer-range model at the shorter
model's horizon, and verifies everything with proper scores, PIT histograms
and significance tests. A synthetic scenario generator and a CLI make the
whole chain runnable end to end without any proprietary forecast archive.
"""

from .domain import (
    EnsembleForecast,
    ForecastCube,
    GaussianPredictive,
    ObservationSeries,
    PredictionTable,
    SampleTable,
    StationMetadata,
    align,
    ensemble_stats,
)
from .emos import (
    EmosCoefficients,
    FitOptions,
    FitResult,
    fit_batch,
    fit_mixed,
    fit_single,
    identity,
)
from .pipeline import (
    CoefficientKey,
    CoefficientStore,
    RollingWindowSpec,
    build_archive,
    coefficient_slots,
    fit_for_issue,
    mixed_strategy,
    parse_strategy,
    predict_for_issue,
    predict_issues,
    prepare_forecasts,
    select_window,
    single_strategy,
    train,
)
from .scoring import (
    Conclusion,
    PitHistogram,
    ScoreSeries,
    SignificanceResult,
    VerificationReport,
    crpss,
    diebold_mariano,
    ensemble_crps,
    gaussian_crps,
    pit_histogram,
    pit_value,
    randomized_ensemble_pit,
    stratified_report,
)
from .synth import (
    ModelErrorSpec,
    ScenarioSpec,
    TruthSpec,
    generate_model_ensemble,
    generate_scenario,
    generate_truth,
    interpolate_leads,
)
from .terrain import (
    LAPSE_RATE_C_PER_100M,
    ElevationGrid,
    lapse_correct,
    read_esri_ascii,
    tpi,
    tpi_at_station,
)
from .transition import (
    DEFAULT_TRANSITION_WEIGHTS,
    SeamDiagnostics,
    TransitionSpec,
    assemble_seam,
    seam_diagnostics,
    transition1_bounds,
)
from .verification import Cases, Verification, verify, write_reports

__version__ = "0.1.0"
