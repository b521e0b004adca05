"""Grammar over agency incident tweets and assembly into closure records.

The agency feed reports each incident as a series of fixed-format tweets
(initial report, updates, a final cleared notice); parsing extracts road,
direction, mileposts, incident type, lane status and the report flag, and
assembly groups the series into one record per incident.
"""
from __future__ import annotations

import logging
import re
import warnings
from dataclasses import dataclass
from datetime import datetime

from ..errors import OrphanUpdate
from ..ingest.types import IncidentRecord

log = logging.getLogger(__name__)

_ROAD_RE = re.compile(
    r"\b(?P<road>(?:I|US|PA|SR)-\d+|Route\s+\d+)\s+(?P<dir>north|south|east|west)bound\b",
    re.IGNORECASE,
)
_MILEPOST_RE = re.compile(r"Mile\s*Post:?\s*(\d+(?:\.\d+)?)", re.IGNORECASE)
_EXIT_RE = re.compile(r"Exit\s+(\d+(?:\.\d+)?)", re.IGNORECASE)

_INCIDENT_TYPES = (
    "multi vehicle crash", "vehicle fire", "disabled vehicle", "downed tree",
    "bridge work", "crash", "roadwork", "construction", "debris", "flooding",
    "maintenance", "accident",
)

_FULL_RE = re.compile(r"all lanes closed|full closure|road(?:way)? closed", re.IGNORECASE)
_RESTRICTION_RE = re.compile(r"lane restriction|lane closed|shoulder closed", re.IGNORECASE)
_OPEN_RE = re.compile(r"all lanes (?:re)?open(?:ed)?|lanes open", re.IGNORECASE)


@dataclass(frozen=True)
class ParsedIncidentTweet:
    timestamp: datetime
    road_name: str
    direction: str
    mileposts: tuple[float, ...]
    incident_type: str
    lane_status: str        # RESTRICTION | FULL_CLOSURE | OPEN
    flag: str               # OCCUR | UPDATE | CLEAR


def parse_incident_tweet(text: str, timestamp: datetime) -> ParsedIncidentTweet | None:
    """Parse one agency tweet; None signals a non-incident tweet (not an error)."""
    stripped = text.strip()
    flag = "OCCUR"
    upper = stripped.upper()
    if upper.startswith("UPDATE"):
        flag = "UPDATE"
    elif upper.startswith(("CLEARED", "CLEAR:")):
        flag = "CLEAR"
    road_m = _ROAD_RE.search(stripped)
    if not road_m:
        return None
    mileposts = tuple(float(v) for v in _MILEPOST_RE.findall(stripped))
    if not mileposts:
        mileposts = tuple(float(v) for v in _EXIT_RE.findall(stripped))
    if not mileposts:
        return None
    lowered = stripped.lower()
    incident_type = next((t for t in _INCIDENT_TYPES if t in lowered), "incident")
    if _FULL_RE.search(stripped):
        lane_status = "FULL_CLOSURE"
    elif _RESTRICTION_RE.search(stripped):
        lane_status = "RESTRICTION"
    elif _OPEN_RE.search(stripped) or flag == "CLEAR":
        lane_status = "OPEN"
    else:
        lane_status = "RESTRICTION"
    road = road_m.group("road").upper().replace("ROUTE", "Route")
    return ParsedIncidentTweet(
        timestamp=timestamp,
        road_name=re.sub(r"\s+", " ", road),
        direction=road_m.group("dir").lower() + "bound",
        mileposts=tuple(sorted(mileposts)),
        incident_type=incident_type,
        lane_status=lane_status,
        flag=flag,
    )


def assemble_incident_records(parsed, milepost_geocoder) -> list[IncidentRecord]:
    """Group parsed tweets into records: a maximal OCCUR..CLEAR series each.

    `milepost_geocoder(road_name, direction, milepost)` must return
    (road_id, lat, lon) or None. Orphan UPDATE/CLEAR tweets synthesize a
    record beginning at that tweet, with a warning.
    """
    groups: dict[tuple, list[ParsedIncidentTweet]] = {}
    for p in parsed:
        key = (p.road_name, p.direction, p.mileposts)
        groups.setdefault(key, []).append(p)

    records = []
    counter = 0
    for key in sorted(groups):
        series = sorted(groups[key], key=lambda p: p.timestamp)
        open_run: list[ParsedIncidentTweet] = []
        runs: list[list[ParsedIncidentTweet]] = []
        for p in series:
            if not open_run and p.flag != "OCCUR":
                warnings.warn(f"orphan {p.flag} tweet on {key[0]} {key[1]}", OrphanUpdate)
            open_run.append(p)
            if p.flag == "CLEAR":
                runs.append(open_run)
                open_run = []
        if open_run:    # feed ended before the cleared notice
            runs.append(open_run)
        for run in runs:
            road_name, direction, mileposts = key
            lo = milepost_geocoder(road_name, direction, mileposts[0])
            hi = milepost_geocoder(road_name, direction, mileposts[-1])
            if lo is None or hi is None:
                log.warning("cannot geocode %s %s mp %s; record dropped",
                            road_name, direction, mileposts)
                continue
            road_id, lo_lat, lo_lon = lo
            _, hi_lat, hi_lon = hi
            counter += 1
            closure_type = "FULL" if any(p.lane_status == "FULL_CLOSURE" for p in run) else "PARTIAL"
            records.append(IncidentRecord(
                incident_id=f"tw{counter:05d}",
                source="TWEET",
                road_id=road_id,
                closure_start_ts=run[0].timestamp,
                closure_end_ts=run[-1].timestamp,
                start_coord=(lo_lat, lo_lon),
                end_coord=(hi_lat, hi_lon),
                closure_type=closure_type,
                category=run[0].incident_type,
            ))
    records.sort(key=lambda r: (r.closure_start_ts, r.incident_id))
    return records
