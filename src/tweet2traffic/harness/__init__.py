from .metrics import MetricSet, compute_metrics  # noqa: F401
from .baselines import hm_predict, fit_sar, sar_rollout, SarModel  # noqa: F401
from .pipeline import PreparedData, prepare_data  # noqa: F401
from .tscv import run_nested_tscv  # noqa: F401
from .ablation import ABLATION_VARIANTS, run_ablation  # noqa: F401
from .descriptive import run_descriptive_analysis  # noqa: F401
from .report import emit_report  # noqa: F401
