import random
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest

from polypack.scoring import (Leaderboard, SubmissionRecord, UnknownInstance,
                              ValueExceedsBest, build_leaderboard,
                              instance_score, read_records_csv, render_table)

T0 = datetime(2023, 10, 1, 12, 0, 0)


def rec(team, inst, value, minutes=0):
    return SubmissionRecord(team, inst, value, T0 + timedelta(minutes=minutes))


class TestInstanceScore:
    def test_equal_to_best_is_one(self):
        assert instance_score(5, 5) == 1
        assert instance_score(123456, 123456) == 1

    def test_half_of_best_is_quarter(self):
        assert instance_score(5, 10) == Fraction(1, 4)
        assert instance_score(50, 100) == Fraction(1, 4)

    def test_zero_value_scores_zero(self):
        assert instance_score(0, 10) == 0

    def test_nobody_packed_anything(self):
        assert instance_score(0, 0) == 0

    def test_exceeding_best_rejected(self):
        with pytest.raises(ValueExceedsBest):
            instance_score(11, 10)

    def test_exact_rational(self):
        assert instance_score(3, 7) == Fraction(9, 49)


def oracle_totals(records, instances):
    """Straightforward recomputation with exact rationals (independent)."""
    best = {i: 0 for i in instances}
    for r in records:
        best[r.instance] = max(best[r.instance], r.value)
    teams = sorted({r.team for r in records})
    totals = {}
    for t in teams:
        tot = Fraction(0)
        for i in instances:
            mine = max([r.value for r in records if r.team == t and r.instance == i],
                       default=0)
            if best[i]:
                tot += Fraction(mine, best[i]) ** 2
        totals[t] = tot
    return totals


class TestLeaderboard:
    def test_single_team_all_solved(self):
        instances = [f"i{k}" for k in range(7)]
        records = [rec("solo", i, 10, k) for k, i in enumerate(instances)]
        board = build_leaderboard(records, instances)
        assert board.standings[0].total == len(instances)

    def test_tie_broken_by_earlier_achievement(self):
        instances = ["a", "b"]
        records = [
            rec("early", "a", 10, minutes=1),
            rec("early", "b", 10, minutes=2),
            rec("late", "a", 10, minutes=3),
            rec("late", "b", 10, minutes=4),
        ]
        board = build_leaderboard(records, instances)
        assert board.standings[0].total == board.standings[1].total == 2
        assert [s.team for s in board.standings] == ["early", "late"]

    def test_achievement_time_ignores_scoreless_resubmissions(self):
        instances = ["a"]
        records = [
            rec("t", "a", 10, minutes=1),
            rec("t", "a", 10, minutes=50),  # same value, changes nothing
        ]
        board = build_leaderboard(records, instances)
        assert board.standings[0].achieved_at == T0 + timedelta(minutes=1)

    def test_unknown_instance(self):
        with pytest.raises(UnknownInstance):
            build_leaderboard([rec("t", "ghost", 1)], ["real"])

    def test_missing_submissions_score_zero(self):
        board = build_leaderboard([rec("t", "a", 5)], ["a", "b"])
        assert board.standings[0].scores["b"] == 0
        assert board.standings[0].total == 1

    def test_matches_oracle_on_random_records(self):
        rng = random.Random(61)
        for _ in range(50):
            instances = [f"i{k}" for k in range(rng.randint(1, 12))]
            teams = [f"team{k}" for k in range(rng.randint(1, 6))]
            records = []
            for m in range(rng.randint(1, 60)):
                records.append(rec(rng.choice(teams), rng.choice(instances),
                                   rng.randint(0, 50), minutes=m))
            board = build_leaderboard(records, instances)
            expected = oracle_totals(records, instances)
            got = {s.team: s.total for s in board.standings}
            assert got == expected
            totals = [s.total for s in board.standings]
            assert totals == sorted(totals, reverse=True)
            assert all(0 <= t <= len(instances) for t in totals)

    def test_monotonicity_of_improvement(self):
        rng = random.Random(62)
        instances = [f"i{k}" for k in range(5)]
        for _ in range(40):
            records = [rec(f"t{k % 3}", rng.choice(instances),
                           rng.randint(1, 30), minutes=k) for k in range(20)]
            board = build_leaderboard(records, instances)
            before = {s.team: s.total for s in board.standings}
            target = rng.choice(records)
            improved = records + [rec(target.team, target.instance,
                                      target.value + rng.randint(1, 20), 99)]
            after = {s.team: s.total
                     for s in build_leaderboard(improved, instances).standings}
            assert after[target.team] >= before[target.team]
            for team, total in after.items():
                if team != target.team:
                    assert total <= before[team]

    def test_scale_invariance(self):
        rng = random.Random(63)
        instances = ["a", "b", "c"]
        records = [rec(f"t{k % 4}", rng.choice(instances), rng.randint(1, 40), k)
                   for k in range(30)]
        base = build_leaderboard(records, instances)
        scaled_records = [SubmissionRecord(r.team, r.instance, r.value * 17, r.timestamp)
                          for r in records]
        scaled = build_leaderboard(scaled_records, instances)
        for s1, s2 in zip(base.standings, scaled.standings):
            assert s1.team == s2.team
            assert s1.scores == s2.scores

    def test_half_best_everywhere_on_180_instances(self):
        instances = [f"i{k}" for k in range(180)]
        records = []
        for k, name in enumerate(instances):
            records.append(rec("best", name, 100, k))
            records.append(rec("half", name, 50, k))
        board = build_leaderboard(records, instances)
        by_team = {s.team: s.total for s in board.standings}
        assert by_team["best"] == 180
        assert by_team["half"] == Fraction(45)


def test_csv_round_trip():
    csv_data = (
        "team,instance,value,timestamp\n"
        "alpha,i0,12,2023-10-01T12:00:00\n"
        "beta,i0,24,2023-10-01T13:30:00\n"
    )
    records = read_records_csv(csv_data)
    assert len(records) == 2
    assert records[1].value == 24
    board = build_leaderboard(records, ["i0"])
    assert [s.team for s in board.standings] == ["beta", "alpha"]
    assert "beta" in render_table(board)
    obj = board.to_json_obj()
    assert obj["standings"][0]["total_display"] == "1.00"
    assert obj["standings"][1]["total_display"] == "0.25"


def test_team_named_team_keeps_its_records():
    # only a first row whose value cell is not an integer is a header
    rows = ("Team,i0,5,2023-10-01T12:00:00\n"
            "beta,i0,4,2023-10-01T13:00:00\n"
            "team,i1,3,2023-10-01T14:00:00\n")
    for csv_data in (rows, "team,instance,value,timestamp\n" + rows):
        records = read_records_csv(csv_data)
        assert [r.team for r in records] == ["Team", "beta", "team"]
        board = build_leaderboard(records, ["i0", "i1"])
        assert [s.team for s in board.standings] == ["Team", "team", "beta"]  # tie: Team earlier
        by_team = {s.team: s.total for s in board.standings}
        assert by_team == {"team": 1, "Team": 1, "beta": Fraction(16, 25)}


def test_only_the_first_row_may_be_a_header():
    with pytest.raises(ValueError):
        read_records_csv("alpha,i0,5,2023-10-01T12:00:00\n"
                         "team,instance,value,timestamp\n")


def test_timestamps_parse_one_form_on_every_python():
    def stamp(text):
        return read_records_csv(f"alpha,i0,5,{text}\n")[0].timestamp

    assert stamp("2024-01-01T00:00:00Z") == stamp("2024-01-01T00:00:00+00:00")
    assert stamp("2024-01-01T00:00:00Z") == datetime(2024, 1, 1, tzinfo=timezone.utc)
    assert stamp("2024-01-01 10:11:12.123") == datetime(2024, 1, 1, 10, 11, 12, 123000)
    assert stamp("2024-01-01T10:11:12.000123-05:30") == datetime(
        2024, 1, 1, 10, 11, 12, 123, tzinfo=timezone(-timedelta(hours=5, minutes=30)))
    for bad in ("20240101T000000", "2024-01-01", "2024-01-01T00:00", "2024-01-01T00:00:00.5",
                "2024-01-01T00:00:00+0000", "2024-01-01T00:00:00+00:60", "2024-01-01T24:00:00",
                "2024-02-30T00:00:00", "2024-01-01T00:00:00z", "٢٠٢٤-01-01T00:00:00"):
        with pytest.raises(ValueError):
            stamp(bad)
    # Z counts as an offset, so it may not be mixed with naive timestamps
    with pytest.raises(ValueError, match="UTC offset"):
        read_records_csv("alpha,i0,5,2024-01-01T00:00:00Z\n"
                         "beta,i0,4,2024-01-01T00:00:00\n")
