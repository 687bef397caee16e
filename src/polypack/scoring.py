"""Squared-ratio contest scoring and leaderboard aggregation.

A team's score on an instance is (team best / overall best)^2, kept as an
exact rational so ranking never suffers float ordering artifacts.  Ties on
the total are broken by the earliest moment a team's running total first
reached its final value, all instance scores being computed against the
final per-instance bests.
"""
from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from typing import Iterable


class ValueExceedsBest(ValueError):
    """team_value > best_value; the caller must recompute the best first."""


class UnknownInstance(ValueError):
    """A record references an instance that is not part of the corpus."""


def instance_score(team_value: int, best_value: int) -> Fraction:
    """(team/best)^2 as an exact rational; 0 when nobody packed anything."""
    if team_value < 0 or best_value < 0:
        raise ValueError("values must be non-negative")
    if team_value > best_value:
        raise ValueExceedsBest(f"{team_value} > best {best_value}")
    if best_value == 0:
        return Fraction(0)
    return Fraction(team_value * team_value, best_value * best_value)


@dataclass(frozen=True)
class SubmissionRecord:
    team: str
    instance: str
    value: int
    timestamp: datetime

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("record value must be non-negative")


@dataclass(frozen=True)
class TeamStanding:
    team: str
    total: Fraction
    achieved_at: datetime
    scores: dict  # instance -> Fraction


@dataclass(frozen=True)
class Leaderboard:
    instances: tuple[str, ...]
    best_values: dict  # instance -> int
    standings: tuple[TeamStanding, ...]  # ranked best first

    def to_json_obj(self) -> dict:
        return {
            "type": "cgshop2024_leaderboard",
            "instances": list(self.instances),
            "best_values": {k: self.best_values[k] for k in self.instances},
            "standings": [
                {
                    "rank": i + 1,
                    "team": s.team,
                    "total": float(s.total),
                    "total_display": f"{float(s.total):.2f}",
                    "achieved_at": s.achieved_at.isoformat(),
                    "scores": {k: float(v) for k, v in sorted(s.scores.items())},
                }
                for i, s in enumerate(self.standings)
            ],
        }


def build_leaderboard(records: Iterable[SubmissionRecord],
                      instances: Iterable[str]) -> Leaderboard:
    instances = tuple(instances)
    known = set(instances)
    records = list(records)
    for rec in records:
        if rec.instance not in known:
            raise UnknownInstance(rec.instance)

    best: dict[str, int] = {name: 0 for name in instances}
    team_best: dict[str, dict[str, int]] = {}
    for rec in records:
        best[rec.instance] = max(best[rec.instance], rec.value)
        per = team_best.setdefault(rec.team, {})
        per[rec.instance] = max(per.get(rec.instance, 0), rec.value)

    standings = []
    for team in sorted(team_best):
        per = team_best[team]
        scores = {name: instance_score(per.get(name, 0), best[name])
                  for name in instances}
        total = sum(scores.values(), Fraction(0))
        standings.append(TeamStanding(
            team, total, _achieved_at(records, team, best, total), scores))
    standings.sort(key=lambda s: (-s.total, s.achieved_at, s.team))
    return Leaderboard(instances, best, tuple(standings))


def _achieved_at(records, team, best, final_total: Fraction) -> datetime:
    """Earliest time the team's running total (scored against the final
    bests) first equals its final total."""
    own = sorted((r for r in records if r.team == team),
                 key=lambda r: (r.timestamp, r.instance, r.value))
    if final_total == 0:
        return own[0].timestamp
    running: dict[str, int] = {}
    total = Fraction(0)
    for rec in own:
        prev = running.get(rec.instance, 0)
        if rec.value > prev:
            running[rec.instance] = rec.value
            total += instance_score(rec.value, best[rec.instance]) \
                - instance_score(prev, best[rec.instance])
        if total == final_total:
            return rec.timestamp
    return own[-1].timestamp


_STAMP = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})[T ]([0-9]{2}):([0-9]{2}):([0-9]{2})"
                    r"(?:\.([0-9]{6}|[0-9]{3}))?(Z|([+-])([0-9]{2}):([0-5][0-9]))?")


def _parse_timestamp(stamp: str) -> datetime:
    """`YYYY-MM-DD`, `T` or a space, `HH:MM:SS`, an optional fraction of 3
    or 6 digits, and an optional `Z` (meaning +00:00) or `±HH:MM` offset.
    Parsed here, not by `datetime.fromisoformat`, whose accepted forms
    differ between Python versions; anything else raises ValueError."""
    m = _STAMP.fullmatch(stamp)
    if m is None:
        raise ValueError(f"timestamp {stamp!r} is not YYYY-MM-DDTHH:MM:SS[.fff[fff]][Z|+HH:MM]")
    *fields, frac, zone, sign, oh, om = m.groups()
    tz = None
    if zone == "Z":
        tz = timezone.utc
    elif zone is not None:
        offset = timedelta(hours=int(oh), minutes=int(om))
        tz = timezone(-offset if sign == "-" else offset)
    micro = int(frac.ljust(6, "0")) if frac else 0
    return datetime(*map(int, fields), micro, tzinfo=tz)


def read_records_csv(data) -> list[SubmissionRecord]:
    """CSV columns: team, instance, value, timestamp (`_parse_timestamp`).
    The first row is a header, and skipped, iff its value cell is not an
    integer; a team may be named anything, "team" included.  Timestamps
    must all carry a UTC offset or all lack one, since the two kinds cannot
    be ordered against each other."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    out = []
    for i, row in enumerate(r for r in csv.reader(io.StringIO(data)) if r):
        if len(row) != 4:
            raise ValueError(f"expected 4 columns, got {row!r}")
        team, instance, value, stamp = (c.strip() for c in row)
        try:
            value = int(value)
        except ValueError:
            if i == 0:
                continue  # the header
            raise
        out.append(SubmissionRecord(team, instance, value,
                                    _parse_timestamp(stamp)))
    if len({r.timestamp.utcoffset() is None for r in out}) > 1:
        raise ValueError("timestamps mix values with and without a UTC offset")
    return out


def render_table(board: Leaderboard) -> str:
    lines = [f"{'rank':>4}  {'team':<24} {'score':>8}  achieved"]
    for i, s in enumerate(board.standings):
        lines.append(f"{i + 1:>4}  {s.team:<24} {float(s.total):>8.2f}  "
                     f"{s.achieved_at.isoformat()}")
    return "\n".join(lines)
