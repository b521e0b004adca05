"""Exception hierarchy shared across the pipeline."""


class Tweet2TrafficError(Exception):
    """Base class for all library errors."""


class MissingFile(Tweet2TrafficError):
    pass


class SchemaMismatch(Tweet2TrafficError):
    def __init__(self, column: str, detail: str = ""):
        self.column = column
        super().__init__(f"schema mismatch on column {column!r}" + (f": {detail}" if detail else ""))


class ParseError(Tweet2TrafficError):
    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class InvalidConfig(Tweet2TrafficError):
    pass


class EmptyInput(Tweet2TrafficError):
    pass


class IncompleteDay(Tweet2TrafficError):
    pass


class EmptyRoad(Tweet2TrafficError):
    pass


class DegenerateInput(Tweet2TrafficError):
    pass


class KTooLarge(Tweet2TrafficError):
    pass


class RangeTooSmall(Tweet2TrafficError):
    pass


class EmptyDay(Tweet2TrafficError):
    pass


class DegenerateTable(Tweet2TrafficError):
    pass


class OrphanUpdate(Warning):
    """Incident UPDATE/CLEAR tweet seen without a preceding OCCUR."""


class NotConverged(Warning):
    """Optimizer hit its iteration cap before meeting the tolerance."""


class InsufficientHistory(Tweet2TrafficError):
    pass


class TooFewDays(Tweet2TrafficError):
    pass


class UnknownVariant(Tweet2TrafficError):
    pass


class IoError(Tweet2TrafficError):
    pass
