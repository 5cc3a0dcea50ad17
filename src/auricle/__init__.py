"""auricle: binaural scene synthesis and spatial-fidelity evaluation.

The library renders stem-based music into binaural audio by HRIR convolution
with constrained random source placement, and scores source-separation
outputs for how well they preserve interaural cues (ITD/ILD) and spatial
structure (SSR/SRR energy ratios).
"""

from .audio import AudioBuffer, read_wav, write_wav
from .dsp import Frame, fft_convolve, frame_signal, rms_weight
from .evaluate import MetricRow, evaluate_track, evaluate_tree, read_rows_csv, write_rows_csv
from .hrir import (
    GRID_DEGREES,
    HrirDatabase,
    HrirPair,
    load_hrir_database,
    save_hrir_database,
    spherical_head_database,
)
from .metrics import (
    MetricConfig,
    MetricStatus,
    MetricValue,
    SpatialDecomposition,
    align_pair,
    delta_ild,
    delta_itd,
    gcc_phat_tdoa,
    project_gain_delay,
    signal_ild,
    signal_itd,
    signal_itd_lag,
    ssr_srr,
)
from .report import MetricReport, aggregate_medians, bin_by_angle, write_report
from .scene import (
    STEM_NAMES,
    Manifest,
    SceneLayout,
    binauralize,
    downmix_mono,
    mix_and_normalize,
    read_manifest,
    sample_layout,
    song_seed,
    synthesize_dataset,
    synthesize_track,
)

__version__ = "0.1.0"
