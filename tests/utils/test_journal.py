"""The journal primitive: replay rule, open-for-append, atomic rewrite."""

import json

import pytest

from repro.utils.journal import Appender, replay, rewrite

HEADER = {"kind": "test", "schema": 1}
HEADER_LINE = json.dumps(HEADER) + "\n"


def keep(obj):
    return obj


def write(path, *lines):
    path.write_text("".join(lines), encoding="utf-8")


class TestReplay:
    def test_missing_file_is_empty(self, tmp_path):
        state = replay(tmp_path / "nope.jsonl", HEADER, keep)
        assert (state.header, state.records, state.bad) == (None, [], 0)

    def test_header_records_and_bad_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write(path, HEADER_LINE, '{"a":1}\n', "\n", "garbage\n", "[1]\n",
              '{"a":2}\n', '{"a":')
        state = replay(path, HEADER, keep)
        assert state.header == HEADER
        assert state.records == [{"a": 1}, {"a": 2}]
        assert state.bad == 3  # garbage, a list, the torn tail
        assert state.torn and state.foreign_at is None

    def test_records_the_decoder_rejects_are_bad(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write(path, HEADER_LINE, '{"a":1}\n', '{"b":2}\n')
        state = replay(path, HEADER, lambda obj: obj.get("a"))
        assert state.records == [1] and state.bad == 1

    def test_extra_header_fields_are_returned(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write(path, json.dumps({**HEADER, "name": "x"}) + "\n")
        assert replay(path, HEADER, keep).header == {**HEADER, "name": "x"}

    @pytest.mark.parametrize("first", [
        '{"kind": "test", "schema": 2}\n',  # stale
        '{"kind": "other", "schema": 1}\n',  # foreign
        '{"a": 1}\n',  # no header at all
        '{"kind": "te\n',  # torn header
    ])
    def test_bad_header_makes_whole_file_foreign(self, tmp_path, first):
        path = tmp_path / "j.jsonl"
        write(path, "\n", first, '{"a":1}\n', "\n", '{"a":2}\n')
        state = replay(path, HEADER, keep)
        assert state.header is None and state.records == []
        assert state.bad == 3  # the header line and every non-blank after
        assert state.foreign_at == 1

    def test_kind_line_after_header_is_foreign_from_there(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write(path, HEADER_LINE, '{"a":1}\n', HEADER_LINE, '{"a":2}\n')
        state = replay(path, HEADER, keep)
        assert state.records == [{"a": 1}]
        assert state.bad == 2
        assert state.foreign_at == len(HEADER_LINE) + len('{"a":1}\n')

    def test_undecodable_bytes_keep_offsets_exact(self, tmp_path):
        path = tmp_path / "j.jsonl"
        data = HEADER_LINE.encode() + b"\xff\xfe\n" + b'{"kind":"x"}\n'
        path.write_bytes(data)
        state = replay(path, HEADER, keep)
        assert state.bad == 2
        assert data[state.foreign_at:] == b'{"kind":"x"}\n'


class TestAppender:
    def test_new_file_gets_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        out = Appender(path, HEADER, HEADER_LINE, fsync=False)
        out.write('{"a":1}\n')
        out.detach()
        assert path.read_text() == HEADER_LINE + '{"a":1}\n'

    def test_torn_tail_is_terminated_first(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write(path, HEADER_LINE, '{"a":1}\n', '{"a":')
        out = Appender(path, HEADER, HEADER_LINE, fsync=True)
        out.write('{"a":3}\n')
        out.detach()
        state = replay(path, HEADER, keep)
        assert state.records == [{"a": 1}, {"a": 3}]
        assert state.bad == 1

    def test_foreign_file_is_set_aside(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write(path, '{"kind": "test", "schema": 0}\n', '{"a":1}\n')
        original = path.read_bytes()
        out = Appender(path, HEADER, HEADER_LINE, fsync=False)
        out.write('{"a":2}\n')
        out.detach()
        assert (tmp_path / "j.jsonl.foreign").read_bytes() == original
        assert path.read_text() == HEADER_LINE + '{"a":2}\n'

    def test_foreign_tail_is_cut_and_prefix_kept(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write(path, HEADER_LINE, '{"a":1}\n', '{"kind":"x"}\n', '{"a":9}\n')
        original = path.read_bytes()
        out = Appender(path, HEADER, HEADER_LINE, fsync=False)
        out.write('{"a":2}\n')
        out.detach()
        assert (tmp_path / "j.jsonl.foreign").read_bytes() == original
        state = replay(path, HEADER, keep)
        assert state.records == [{"a": 1}, {"a": 2}] and state.bad == 0

    def test_write_after_detach_raises(self, tmp_path):
        out = Appender(tmp_path / "j.jsonl", HEADER, HEADER_LINE, fsync=False)
        out.detach()
        with pytest.raises(ValueError):
            out.write("{}\n")


class TestRewrite:
    def test_replaces_target_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("old")
        rewrite(path, "new")
        rewrite(path, b"newer")
        assert path.read_text() == "newer"
        assert list(tmp_path.iterdir()) == [path]
