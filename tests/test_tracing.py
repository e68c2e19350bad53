"""The trace writer formats its own lines; they must be the bytes
``json.dumps`` gives, and the reader must read them back."""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowbridge.tracing import Trace, xlink_parts
from tracefile import events


def dumps(rec):
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


# text that json escapes: quotes, backslashes, control and non-ASCII
# characters, lone surrogates
tricky = st.sampled_from('"\\/\x00\x07\b\n\r\t\x1f\x7f\x80é€ \U0001F600\ud800a')
texts = st.one_of(st.text(), st.text(tricky, max_size=12),
                  st.text(st.characters(exclude_categories=()), max_size=12))
ints = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) + 2),
)
numbers = st.one_of(ints, st.floats())  # NaN and both infinities included
scalars = st.one_of(st.none(), st.booleans(), numbers, texts)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=12,
)
field_names = texts.filter(lambda k: k not in ("ev", "at"))


@given(texts, st.integers(), st.dictionaries(field_names, values, max_size=6))
@settings(max_examples=200, deadline=None)
def test_record_writes_the_json_line_and_reads_back(ev, at, fields):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        trace = Trace(path)
        trace.record(ev, at, **fields)
        trace.record(ev + "!", 0)
        trace.close()
        line = path.read_text(encoding="utf-8").splitlines()[0]
        back = list(events(path, ev))
    assert line == dumps({"ev": ev, "at": at, **fields})
    assert len(back) == 1 and dumps(back[0]) == line


def test_a_nested_ev_key_does_not_make_an_event(tmp_path):
    trace = Trace(tmp_path / "trace.jsonl")
    trace.record("a", 0, x={"ev": "b"})
    trace.close()
    assert list(events(tmp_path / "trace.jsonl", "b")) == []


# mostly what a crossing passes, and any other value, which goes through record()
@given(texts, texts, st.one_of(ints, scalars), st.one_of(texts, scalars),
       st.one_of(ints, scalars), st.one_of(texts, scalars))
@example("edge", "cloud", 0, "robot-1@edge", True, "scan")  # a bool is not an int here
@settings(deadline=None)
def test_xlink_writes_the_line_record_writes(frm, to, at, origin, seq, topic):
    with tempfile.TemporaryDirectory() as tmp:
        fast, slow = Path(tmp) / "xlink.jsonl", Path(tmp) / "record.jsonl"
        trace = Trace(fast)
        trace.xlink(xlink_parts(frm, to), at, origin, seq, topic)
        trace.close()
        trace = Trace(slow)
        trace.record("xlink", at, frm=frm, to=to, topic=topic, origin=origin, seq=seq)
        trace.close()
        assert fast.read_bytes() == slow.read_bytes()


def test_field_order_does_not_change_the_line(tmp_path):
    trace = Trace(tmp_path / "trace.jsonl")
    trace.record("x", 5, b=1, a="two", c=None)
    trace.record("x", 5, c=None, a="two", b=1)
    trace.record("x", 5, a="two", b=1, c=None)
    trace.close()
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert lines == ['{"a":"two","at":5,"b":1,"c":null,"ev":"x"}'] * 3


def test_without_a_file_nothing_is_written():
    Trace().record("x", 0, a=1)  # no file, no error
