"""TraceEvent model and container tests."""

import copy
import dataclasses
import pickle

import pytest

from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import BarrierStamp, TraceBundle, TraceFile


def ev(name="SYS_write", ts=1.0, dur=0.01, **kw):
    defaults = dict(
        timestamp=ts,
        duration=dur,
        layer=EventLayer.SYSCALL,
        name=name,
        args=(3, "0x800", 4096),
        result=4096,
        pid=10,
        rank=2,
        hostname="h",
        user="u",
        nbytes=4096,
    )
    defaults.update(kw)
    return TraceEvent(**defaults)


class TestTraceEvent:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ev(dur=-0.1)
        with pytest.raises(ValueError, match="non-negative"):
            TraceEvent(0.0, -1e-9, EventLayer.SYSCALL, "SYS_write")
        assert ev(dur=0.0).duration == 0.0

    def test_layer_coerced_from_string(self):
        e = ev(layer="vfs")
        assert e.layer is EventLayer.VFS
        with pytest.raises(ValueError):
            ev(layer="nosuchlayer")

    def test_args_coerced_to_tuple(self):
        e = ev(args=[1, 2])
        assert e.args == (1, 2)
        e = ev(args=iter([1, "x"]))
        assert e.args == (1, "x") and type(e.args) is tuple

    def test_end_timestamp(self):
        assert ev(ts=5.0, dur=0.25).end_timestamp == 5.25

    def test_is_io(self):
        assert ev().is_io
        assert not ev(nbytes=None).is_io

    def test_with_fields_copies(self):
        a = ev()
        b = a.with_fields(user="anon")
        assert b.user == "anon" and a.user == "u"
        assert b.name == a.name

    def test_brief_rendering(self):
        text = ev(name="SYS_open", args=("/etc/hosts", 0), result=3).brief()
        assert "SYS_open" in text and "'/etc/hosts'" in text and "= 3" in text


class TestTraceEventContract:
    """What callers rely on, independent of how the constructor is built.

    ``TraceEvent`` is a frozen, slotted dataclass with a hand-written
    ``__init__``; these pin the dataclass behaviour that must survive it
    on every supported Python (the coercions and the duration check are
    in :class:`TestTraceEvent`).
    """

    FIELDS = [
        "timestamp", "duration", "layer", "name", "args", "result", "pid",
        "rank", "hostname", "user", "path", "fd", "nbytes", "offset",
    ]

    def test_fields_in_declaration_order(self):
        assert [f.name for f in dataclasses.fields(TraceEvent)] == self.FIELDS
        assert dataclasses.is_dataclass(ev())

    def test_positional_and_keyword_construction_agree(self):
        e = ev(path="/pfs/f", fd=3, offset=8)
        assert TraceEvent(*(getattr(e, f) for f in self.FIELDS)) == e

    def test_defaults(self):
        e = TraceEvent(1.0, 0.0, EventLayer.VFS, "vfs_read")
        assert (e.args, e.result, e.pid, e.rank, e.hostname, e.user) == (
            (), None, 0, None, "", "",
        )
        assert (e.path, e.fd, e.nbytes, e.offset) == (None, None, None, None)

    def test_eq_and_hash_follow_the_fields(self):
        a, b = ev(), ev()
        assert a == b and hash(a) == hash(b)
        assert a != ev(ts=2.0)
        assert len({a, b, ev(ts=2.0)}) == 2

    def test_repr_names_every_field(self):
        text = repr(ev(name="SYS_open", args=("/etc/hosts",)))
        assert text.startswith("TraceEvent(timestamp=1.0, duration=0.01, ")
        assert "layer=<EventLayer.SYSCALL: 'syscall'>" in text
        assert "name='SYS_open', args=('/etc/hosts',)" in text
        assert text.endswith("nbytes=4096, offset=None)")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        e = ev(path="/pfs/f", fd=3, offset=8)
        back = pickle.loads(pickle.dumps(e, protocol=protocol))
        assert back == e and type(back) is TraceEvent
        assert back.layer is EventLayer.SYSCALL

    def test_copy_and_deepcopy(self):
        e = ev()
        assert copy.copy(e) == e
        assert copy.deepcopy(e) == e

    def test_replace_and_with_fields(self):
        e = ev()
        r = dataclasses.replace(e, name="SYS_read", layer="vfs", args=[7])
        assert r.name == "SYS_read" and r.layer is EventLayer.VFS
        assert r.args == (7,)
        assert e.with_fields(user="anon") == dataclasses.replace(e, user="anon")
        with pytest.raises(ValueError):
            dataclasses.replace(e, duration=-1.0)

    def test_assignment_and_deletion_are_refused(self):
        e = ev()
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.name = "SYS_read"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del e.user
        with pytest.raises((AttributeError, TypeError)):
            e.extra = 1
        assert e.name == "SYS_write"

    def test_slotted(self):
        assert not hasattr(ev(), "__dict__")


class TestTraceFile:
    def test_append_iterate_index(self):
        tf = TraceFile()
        tf.append(ev(ts=1.0))
        tf.append(ev(ts=2.0))
        assert len(tf) == 2
        assert tf[1].timestamp == 2.0
        assert [e.timestamp for e in tf] == [1.0, 2.0]

    def test_filter_and_by_layer(self):
        tf = TraceFile([ev(), ev(layer=EventLayer.LIBCALL, name="MPI_Barrier", nbytes=None)])
        sys_only = tf.by_layer(EventLayer.SYSCALL)
        assert sys_only.names() == ["SYS_write"]
        big = tf.filter(lambda e: (e.nbytes or 0) > 0)
        assert len(big) == 1

    def test_total_bytes_and_span(self):
        tf = TraceFile([ev(ts=1.0, dur=0.5), ev(ts=3.0, dur=0.25)])
        assert tf.total_bytes() == 8192
        assert tf.span() == pytest.approx(2.25)
        assert TraceFile().span() == 0.0

    def test_map_preserves_metadata(self):
        tf = TraceFile([ev()], hostname="h1", pid=5, rank=1, framework="x")
        out = tf.map(lambda e: e.with_fields(user="z"))
        assert out.hostname == "h1" and out.rank == 1
        assert out[0].user == "z"


class TestBarrierStamp:
    def test_exit_before_entry_rejected(self):
        with pytest.raises(ValueError):
            BarrierStamp("b", 0, "h", 1, entered_at=2.0, exited_at=1.0)


class TestTraceBundle:
    def test_all_events_source_order(self):
        b = TraceBundle()
        b.add_file(1, TraceFile([ev(ts=10.0)], rank=1))
        b.add_file(0, TraceFile([ev(ts=20.0)], rank=0))
        events = b.all_events()
        # key order, not time order
        assert [e.timestamp for e in events] == [20.0, 10.0]
        assert b.total_events() == 2
        assert b.n_sources == 2

    def test_map_events(self):
        b = TraceBundle(files={0: TraceFile([ev()])}, metadata={"k": "v"})
        out = b.map_events(lambda e: e.with_fields(user="anon"))
        assert out.files[0][0].user == "anon"
        assert out.metadata == {"k": "v"}
        # original untouched
        assert b.files[0][0].user == "u"
