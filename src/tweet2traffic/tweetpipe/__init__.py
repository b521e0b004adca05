from .textclean import clean_text, load_slang, load_wordlist  # noqa: F401
from .users import (  # noqa: F401
    CheckinCluster,
    UserProfile,
    build_checkin_clusters,
    classify_home_cluster,
    dbscan_cluster,
    detect_bots,
    filter_influential_users,
    geotag_timeline,
    infer_home,
    load_resident_lexicon,
    weighted_home_location,
)
from .incidents import ParsedIncidentTweet, assemble_incident_records, parse_incident_tweet  # noqa: F401
from .geocode import MilepostGeocoder, TractGeocoder  # noqa: F401
from .sentiment import (  # noqa: F401
    LexiconSentimentProvider,
    PrecomputedSentimentProvider,
    sentiment_label,
)
from .encode import encode_event_indicators, encode_sleep_wake  # noqa: F401
