"""Canonical record types for every external dataset."""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date as date_t
from datetime import datetime

import numpy as np


LAND_USE_CLASSES = ("residence", "downtown", "education", "industry", "mixed-use", "amenity")


@dataclass(frozen=True, slots=True)
class SegmentDescriptor:
    segment_id: str
    road_id: str
    order_on_road: int          # 0 = most upstream
    start_milepost: float       # km
    end_milepost: float
    start_coord: tuple[float, float]
    end_coord: tuple[float, float]


@dataclass(frozen=True)
class SpeedCube:
    """speed.csv as one dense (segment, day, slot) array, NaN where no row exists.

    `segment_ids` and `days` are the sorted distinct values the rows use.
    The slot axis covers whole hours from `start_hour`, the hour of the
    earliest row, through 11:00 or the hour of the latest row, whichever is
    later; column `c` is the slot `start_hour * SLOTS_PER_HOUR + c` of the day
    (see `clock`).
    """
    segment_ids: tuple[str, ...]
    days: tuple[date_t, ...]
    start_hour: int
    speed: np.ndarray           # (segments, days, slots) mph, > 0 and finite, NaN if absent

    def __post_init__(self):
        self.speed.flags.writeable = False     # prepare_data hands out views of it

    def __len__(self) -> int:
        """The number of rows: the occupied cells."""
        return int(np.count_nonzero(~np.isnan(self.speed)))


@dataclass(frozen=True, slots=True)
class IncidentRecord:
    incident_id: str
    source: str                 # RCRS | TWEET
    road_id: str
    closure_start_ts: datetime
    closure_end_ts: datetime
    start_coord: tuple[float, float]
    end_coord: tuple[float, float]
    closure_type: str           # PARTIAL | FULL
    category: str


@dataclass(frozen=True, slots=True)
class WeatherRecord:
    timestamp: datetime         # hourly
    temperature: float
    humidity: float
    wind_speed: float
    pressure: float
    visibility: float
    precip_hourly: float
    pavement_wet: bool
    wx_severity: int


@dataclass(frozen=True, slots=True)
class Tweet:
    tweet_id: str
    user_id: str
    timestamp: datetime
    text: str
    coord: tuple[float, float] | None
    user_profile_location: str | None
    kind: str                   # GEOCODED | TIMELINE | RETWEET | FAVORITE


@dataclass(frozen=True, slots=True)
class TractPolygon:
    tract_id: str
    ring: tuple[tuple[float, float], ...]   # closed (lat, lon) ring


@dataclass(frozen=True, slots=True)
class ZonePolygon:
    land_use: str               # one of LAND_USE_CLASSES
    ring: tuple[tuple[float, float], ...]


@dataclass(frozen=True, slots=True)
class CalendarInfo:
    date: date_t
    is_holiday: bool
