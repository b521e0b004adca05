"""The one clock every stage shares.

Speeds arrive in 5-minute slots. Tweet and weather features of a day are
complete by the 05:00 cutoff, where the scored morning starts; the morning
ends at 11:00. None of these is configurable: the speed loader's grid, the
feature windows and the morning layout all assume them.
"""

SLOT_MINUTES = 5
SLOTS_PER_HOUR = 60 // SLOT_MINUTES
SLOTS_PER_DAY = 24 * SLOTS_PER_HOUR

CUTOFF_HOUR = 5             # features are complete and the scored morning starts
MORNING_END_HOUR = 11       # the scored morning is [CUTOFF_HOUR, MORNING_END_HOUR)
N_SLOTS = (MORNING_END_HOUR - CUTOFF_HOUR) * SLOTS_PER_HOUR

# A day's sleep/wake pulses read its tweets from 12:00 on the eve to 12:00 on
# the day, so `TweetConfig.sleep_window` and `wake_window` must lie in that
# span: a window may not start before noon on the eve or end after noon.
# `TweetConfig` rejects any other window with `InvalidConfig`.
SLEEP_ANCHOR_HOUR = 12
