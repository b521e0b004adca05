from .incident import (  # noqa: F401
    incident_location_impact,
    incident_time_window,
    road_orientation,
)
from .weather import weather_bounds, weather_features, weather_hours  # noqa: F401
from .timefeat import cyclic_encode, time_features  # noqa: F401
from .assemble import FeatureMatrix, build_feature_matrix  # noqa: F401
