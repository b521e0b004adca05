from .types import (  # noqa: F401
    CalendarInfo,
    IncidentRecord,
    SegmentDescriptor,
    SpeedCube,
    TractPolygon,
    Tweet,
    WeatherRecord,
    ZonePolygon,
)
from .loaders import load_dataset, write_dataset, load_bundle, DatasetBundle  # noqa: F401
from .synthetic import SyntheticConfig, generate_synthetic  # noqa: F401
