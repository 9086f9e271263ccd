"""The lenient scrubber, called directly.

:class:`~repro.core.dataset.LenientScrub` is the one implementation of
the lenient row rules; batch loads, the parallel encounter stream and
the service's tailers all run it.  These tests pin the rules row by row
and show that chunking with a checkpointed carry changes nothing.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import LenientScrub, _scrub_records
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import MmeRecord, ProxyRecord, record_sort_key
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint

GOOD_IMEI = "358847080000011"
SECTORS = SectorMap(
    [
        Sector("S1", GeoPoint(40.0, -3.0)),
        Sector("S2", GeoPoint(40.1, -3.1)),
    ]
)


def mme(ts, subscriber="s1", imei=GOOD_IMEI, sector="S1"):
    return MmeRecord(ts, subscriber, imei, sector)


def proxy(ts, subscriber="s1", imei=GOOD_IMEI):
    return ProxyRecord(ts, subscriber, imei, "api.example.com")


def examples(collector):
    """Issue code -> example strings, in first-seen order."""
    return {
        issue["code"]: issue["examples"]
        for issue in collector.report().to_dict()["issues"]
    }


def run(scrub, rows):
    return [kept for kept in map(scrub.process_one, rows) if kept is not None]


class TestRowRules:
    def test_hand_written_mme_stream(self):
        first = mme(10.0)
        bad = mme(11.0, "s2", imei="12345")
        late = mme(9.0, "s4")
        after = mme(13.0)
        rows = [
            first,
            first,  # [1] exact duplicate
            bad,  # [2] malformed IMEI
            bad,  # [3] duplicate of a bad row: the duplicate rule wins
            mme(12.0, "s3", sector="S9"),  # [4] unknown sector
            late,  # [5] kept, out of order
            after,
            first,  # [7] kept: not adjacent to its twin; out of order
        ]
        collector = QuarantineCollector()
        scrub = LenientScrub(MmeRecord, collector, SECTORS)
        assert run(scrub, rows) == [first, late, after, first]
        assert scrub.disorder == 2
        assert examples(collector) == {
            "mme-duplicate": ["mme[1]", "mme[3]"],
            "mme-imei": ["mme[2] '12345'"],
            "mme-sector": ["mme[4] S9"],
            "mme-order": ["mme[5]", "mme[7]"],
        }
        assert collector.report().rows_quarantined == {"mme": 4}

    def test_sector_check_is_mme_only(self):
        # The proxy log carries no sector; its scrub is built without
        # the cell plan and applies the other three rules only.
        first = proxy(10.0)
        rows = [first, first, proxy(11.0, imei="x" * 15), proxy(5.0)]
        collector = QuarantineCollector()
        scrub = LenientScrub(ProxyRecord, collector)
        assert run(scrub, rows) == [first, proxy(5.0)]
        assert examples(collector) == {
            "proxy-duplicate": ["proxy[1]"],
            "proxy-imei": [f"proxy[2] {'x' * 15!r}"],
            "proxy-order": ["proxy[3]"],
        }

    def test_batch_pass_re_sorts_on_disorder(self):
        rows = [mme(3.0), mme(1.0), mme(2.0, "s2")]
        scrub = LenientScrub(MmeRecord, QuarantineCollector(), SECTORS)
        kept = _scrub_records(rows, scrub, keep=lambda r: r.subscriber_id == "s1")
        # ``keep`` filters the returned rows, not the accounting: the s2
        # row was still judged (in order after 1.0, so one disorder).
        assert kept == [mme(1.0), mme(3.0)]
        assert scrub.disorder == 1


class TestCheckpointFormat:
    #: A scrub state as the service wrote it before the scrubber moved
    #: into ``repro.core.dataset`` (``payload.scrubs[...]``).
    STORED = {
        "v": 1,
        "index": 5,
        "last_seen": [10.0, "s1", GOOD_IMEI, "S1", "attach"],
        "previous_ts": 10.0,
        "disorder": 1,
    }

    def test_restores_a_stored_state(self):
        collector = QuarantineCollector()
        scrub = LenientScrub(MmeRecord, collector, SECTORS)
        scrub.restore_state(json.loads(json.dumps(self.STORED)))
        assert scrub.to_state() == self.STORED
        # The carry holds: the stored last row is a duplicate, the index
        # resumes at 5, and an earlier timestamp is out of order.
        assert run(scrub, [mme(10.0), mme(9.0, "s2")]) == [mme(9.0, "s2")]
        assert scrub.disorder == 2
        assert examples(collector) == {
            "mme-duplicate": ["mme[5]"],
            "mme-order": ["mme[6]"],
        }

    def test_fresh_state_keys(self):
        scrub = LenientScrub(ProxyRecord, QuarantineCollector())
        state = json.loads(json.dumps(scrub.to_state()))
        assert set(state) == set(self.STORED)
        assert state["v"] == LenientScrub.STATE_VERSION == 1
        assert state["last_seen"] is None


# A defect-laden MME stream: few subscribers and timestamps so rows
# repeat and run backwards, bad IMEIs and unknown sectors, plus explicit
# adjacent duplicates.
_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # timestamp
        st.sampled_from(["s1", "s2", "s3"]),
        st.sampled_from([GOOD_IMEI, GOOD_IMEI, "12345"]),
        st.sampled_from(["S1", "S2", "S9"]),
        st.booleans(),  # repeat the previous row
    ),
    max_size=40,
)


def _stream(spec):
    rows = []
    for ts, subscriber, imei, sector, repeat in spec:
        if repeat and rows:
            rows.append(rows[-1])
        rows.append(mme(float(ts), subscriber, imei, sector))
    return rows


class TestChunkedCarry:
    @settings(max_examples=150, deadline=None)
    @given(spec=_rows, cuts=st.lists(st.integers(min_value=0, max_value=80)))
    def test_chunks_with_checkpoints_equal_one_pass(self, spec, cuts):
        rows = _stream(spec)
        whole_collector = QuarantineCollector()
        whole = LenientScrub(MmeRecord, whole_collector, SECTORS)
        expected = run(whole, rows)

        bounds = sorted({0, len(rows), *(c for c in cuts if c < len(rows))})
        collector = QuarantineCollector()
        scrub = LenientScrub(MmeRecord, collector, SECTORS)
        kept = []
        for start, end in zip(bounds, bounds[1:]):
            kept.extend(run(scrub, rows[start:end]))
            # Checkpoint and restore into fresh objects, as the service
            # does across a restart.
            saved = json.loads(
                json.dumps(
                    {"scrub": scrub.to_state(), "quarantine": collector.to_state()}
                )
            )
            collector = QuarantineCollector.from_state(saved["quarantine"])
            scrub = LenientScrub(MmeRecord, collector, SECTORS)
            scrub.restore_state(saved["scrub"])

        assert kept == expected
        assert scrub.disorder == whole.disorder
        assert collector.report().to_dict() == whole_collector.report().to_dict()
        batch = _scrub_records(
            rows, LenientScrub(MmeRecord, QuarantineCollector(), SECTORS)
        )
        assert batch == (
            sorted(expected, key=record_sort_key) if whole.disorder else expected
        )
