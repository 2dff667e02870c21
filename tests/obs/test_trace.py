"""Unit tests for the structured event tracer."""

import json

import pytest

from repro.obs.trace import (
    EVENT_INTERVAL_DECISION,
    EVENT_REFRESH_BURST,
    TraceEvent,
    Tracer,
)


class TestEmit:
    def test_events_in_order_with_sequence_numbers(self):
        t = Tracer()
        t.emit("a", 10, x=1)
        t.emit("b", 20, y=2)
        events = t.events()
        assert [e.seq for e in events] == [0, 1]
        assert [e.type for e in events] == ["a", "b"]
        assert events[0].data == {"x": 1}

    def test_filter_by_type_and_tally(self):
        t = Tracer()
        t.emit(EVENT_INTERVAL_DECISION, 1)
        t.emit(EVENT_REFRESH_BURST, 2)
        t.emit(EVENT_INTERVAL_DECISION, 3)
        assert len(t.events(EVENT_INTERVAL_DECISION)) == 2
        assert t.tally() == {EVENT_INTERVAL_DECISION: 2, EVENT_REFRESH_BURST: 1}

    def test_len_and_iter(self):
        t = Tracer()
        t.emit("a", 1)
        assert len(t) == 1
        assert [e.type for e in t] == ["a"]


class TestRingBuffer:
    def test_overflow_drops_oldest_and_counts(self):
        t = Tracer(capacity=3)
        for i in range(5):
            t.emit("e", i)
        assert len(t) == 3
        assert t.dropped == 2
        # Oldest two dropped; sequence numbers keep counting globally.
        assert [e.seq for e in t.events()] == [2, 3, 4]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear_resets(self):
        t = Tracer(capacity=1)
        t.emit("a", 1)
        t.emit("b", 2)
        t.clear()
        assert len(t) == 0
        assert t.dropped == 0


class TestJsonl:
    def test_round_trip(self):
        t = Tracer()
        t.emit("interval.decision", 800_000, n_active_way=[3, 4], fa=0.25)
        t.emit("refresh.burst", 900_000, lines=12)
        text = t.to_jsonl()
        parsed = Tracer.read_jsonl(text.splitlines())
        assert parsed == t.events()

    def test_each_line_is_json_with_schema(self):
        t = Tracer()
        t.emit("a", 1, k="v")
        raw = json.loads(t.to_jsonl())
        assert set(raw) == {"seq", "type", "cycle", "data"}
        assert raw["data"] == {"k": "v"}

    def test_write_jsonl_to_path(self, tmp_path):
        t = Tracer()
        t.emit("a", 1)
        t.emit("b", 2)
        path = tmp_path / "trace.jsonl"
        assert t.write_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert TraceEvent.from_json(lines[1]).type == "b"

    def test_format_pretty_mentions_drops(self):
        t = Tracer(capacity=1)
        t.emit("a", 1)
        t.emit("b", 2, xs=[1, 2])
        text = t.format_pretty()
        assert "b" in text
        assert "1 earlier events dropped" in text
