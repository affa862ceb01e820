"""lumenkit: photometric efficacy and CIE 1931 colorimetry toolkit.

Computes the mechanical equivalent of the lumen, the photometric
efficacy ratio (PER) of arbitrary radiation sources, chromaticity
coordinates, and the maximum PER achievable at a fixed chromaticity
(from the lower convex envelope of the lifted spectral locus), with a
CSV-emitting CLI.
"""

from .colorimetry import (
    Chromaticity,
    CmfTable,
    Tristimulus,
    chromaticity,
    default_cmf,
    default_cmf_path,
    gamut_boundary,
    in_gamut,
    load_cmf,
    planckian_locus,
    spectral_locus,
    tristimulus,
)
from .errors import (
    DomainError,
    LumenError,
    ParseError,
    UnsupportedModelError,
    ValidationError,
    ZeroSpectrumError,
)
from .maxper import (
    IsoPerGrid,
    LpSolution,
    iso_per_scan,
    max_per,
)
from .photometry import (
    KM_SI,
    PHOTOPIC,
    PLATINUM_LUMINANCE,
    PLATINUM_POINT_K,
    SCOTOPIC,
    EfficacyResult,
    LuminosityFunction,
    PhotopicAnalytic,
    PlanckSweep,
    ScotopicAnalytic,
    Tabulated,
    compute_km,
    km_denominator,
    luminosity,
    per,
    per_sweep_planck,
)
from .quadrature import spline_fit, total_planck_radiance
from .spectral import (
    Flat,
    Gaussian,
    Line,
    Planck,
    Sampled,
    SampledSpectrum,
    SpectrumModel,
    TruncatedPlanck,
    energy_density_omega,
    evaluate_spectrum,
    photon_number_density,
    planck_radiance,
)

__version__ = "0.1.0"
