"""Unit tests for the memory-request record (repro.sim.request)."""

from repro.sim.request import Request


class TestRequest:
    def test_sequence_numbers_monotone(self):
        a = Request(app_id=0, line_addr=1, is_write=False, created=0.0)
        b = Request(app_id=0, line_addr=2, is_write=False, created=0.0)
        assert b.seq > a.seq

    def test_default_timestamps_unset(self):
        r = Request(app_id=0, line_addr=1, is_write=False, created=5.0)
        assert r.enqueued == -1.0

    def test_decode_fields_default(self):
        r = Request(app_id=3, line_addr=1, is_write=True, created=0.0)
        assert (r.channel, r.bank, r.row) == (0, 0, 0)
