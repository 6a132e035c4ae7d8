"""Tests for the framing protocol, including hypothesis round-trips."""

import ast
import builtins

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.baselines.stock import StockDeployment
from repro.criu.imagefiles import _meta_image
from repro.kernel.mm import Vma
from repro.kernel.tcp import TcpSocket
from repro.net import World
from repro.sim import sec
from repro.workloads import protocol
from repro.workloads.base import ClientStats
from repro.workloads.clients import PipelinedClient
from repro.workloads.kvstore import KvRequestFactory, KvServer
from repro.workloads.microbench import EchoServer


def test_frame_roundtrip():
    body = b"hello world"
    framed = protocol.frame(body)
    got, rest = protocol.peel_frame(framed)
    assert got == body and rest == b""


def test_peel_incomplete_header():
    assert protocol.peel_frame(b"0000") == (None, b"0000")


def test_peel_incomplete_body():
    framed = protocol.frame(b"abcdef")
    assert protocol.peel_frame(framed[:-2]) == (None, framed[:-2])


def test_peel_two_frames():
    data = protocol.frame(b"one") + protocol.frame(b"two")
    first, rest = protocol.peel_frame(data)
    second, rest = protocol.peel_frame(rest)
    assert (first, second, rest) == (b"one", b"two", b"")


def test_frame_ready_counts_missing_bytes():
    framed = protocol.frame(b"abcdef")
    head = framed[: protocol.HEADER_LEN]
    assert protocol.frame_ready(head, len(framed)) == 0
    assert protocol.frame_ready(head, len(framed) - 4) == 4
    # Bytes queued behind the frame do not make it any less ready.
    assert protocol.frame_ready(head, len(framed) + 100) == 0
    assert protocol.frame_ready(b"", 0) == protocol.HEADER_LEN
    assert protocol.frame_ready(framed[:3], 3) == protocol.HEADER_LEN - 3


def test_server_peeks_headers_not_the_queued_frames(monkeypatch):
    # A pipelined client queues N frames at once; the server's readiness
    # check must look at the length header only, not copy the whole
    # receive queue on every wake.
    world = World(seed=3)
    workload = EchoServer(name="echo", min_len=4000, max_len=4000)
    deployment = StockDeployment(world, workload.spec())
    workload.attach(world, deployment.container)
    peeked = []
    real_peek = TcpSocket.peek

    def counting_peek(sock, max_bytes):
        data = real_peek(sock, max_bytes)
        peeked.append(len(data))
        return data

    monkeypatch.setattr(TcpSocket, "peek", counting_peek)

    def request(i):
        body = f"{i:04d}".encode() * 1000
        return body, (lambda response, b=body: None if response == b else "mismatch"), 1

    n = 32
    stats = ClientStats()
    client = PipelinedClient(world, workload.ip, workload.port, request, stats,
                             window=n, n_requests=n)
    client.start()
    world.run(until=sec(2))
    assert stats.completed == n and stats.ok
    assert peeked and sum(peeked) / n <= 4 * protocol.HEADER_LEN


def test_encode_decode_structures():
    obj = ("BATCH", [("set", 3, "value"), ("get", 7, None)])
    assert protocol.decode_body(protocol.encode_body(obj)) == obj


@given(st.binary(max_size=2000))
def test_property_frame_roundtrip(body):
    got, rest = protocol.peel_frame(protocol.frame(body))
    assert got == body and rest == b""


@given(st.lists(st.binary(max_size=200), max_size=10))
def test_property_concatenated_frames_parse_in_order(bodies):
    stream = b"".join(protocol.frame(b) for b in bodies)
    out = []
    while True:
        body, stream = protocol.peel_frame(stream)
        if body is None:
            break
        out.append(body)
    assert out == bodies and stream == b""


@given(
    st.recursive(
        st.one_of(st.integers(), st.text(max_size=20), st.none(), st.binary(max_size=20)),
        lambda children: st.lists(children, max_size=4).map(tuple),
        max_leaves=12,
    )
)
def test_property_encode_decode_roundtrip(obj):
    assert protocol.decode_body(protocol.encode_body(obj)) == obj


# -- differential: decode_body against ast.literal_eval ---------------------

def _shape(value):
    """*value* with the exact type of every node made explicit, so that
    ``1 == True`` or ``(1,) == [1]``-style near misses compare unequal."""
    if isinstance(value, dict):
        return ("dict", [(_shape(k), _shape(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_shape(v) for v in value])
    return (type(value).__name__, value)


_tricky_bytes = st.lists(
    st.one_of(
        st.sampled_from([b"\x00", b"'", b'"', b"}", b")", b"\\", b"\n", b"\xff"]),
        st.binary(max_size=6),
    ),
    max_size=4,
).map(b"".join)
_tricky_text = st.one_of(
    st.text(max_size=12),
    st.lists(
        st.sampled_from(["'", '"', "\\", "\n", "\x00", "é", "€", "\U0001f600", "a"]),
        max_size=6,
    ).map("".join),
)
_scalars = st.one_of(
    st.integers(),
    st.integers(-5, 5),
    st.booleans(),
    st.none(),
    _tricky_text,
    _tricky_bytes,
)
_keys = st.recursive(
    st.one_of(st.integers(), st.booleans(), st.none(), _tricky_text, _tricky_bytes),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=4,
)
_literals = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=3),
    ),
    max_leaves=16,
)


@given(_literals)
@example({"write_queue": [(0, b"\x00"), (0, b"}")]})
@example(((), (1,), [], {}, [()], {(): ()}, -1))
def test_property_decode_matches_literal_eval(obj):
    body = protocol.encode_body(obj)
    got = protocol.decode_body(body)
    assert _shape(got) == _shape(ast.literal_eval(body.decode())) == _shape(obj)


def _mutations(body: bytes, data) -> list[bytes]:
    cut = data.draw(st.integers(0, max(0, len(body) - 1)), label="cut")
    flip = data.draw(st.integers(0, len(body) - 1), label="flip")
    flipped = body[:flip] + bytes([data.draw(st.integers(0, 255), label="byte")]) + body[flip + 1:]
    out = [body[:cut], flipped]
    separators = [i for i in range(len(body)) if body[i:i + 1] in (b",", b":")]
    if separators:
        drop = data.draw(st.sampled_from(separators), label="drop")
        width = 2 if body[drop + 1:drop + 2] == b" " else 1
        out.append(body[:drop] + body[drop + width:])
    return out


@given(_literals, st.data())
def test_property_mutated_bodies_raise_or_match_literal_eval(obj, data):
    for mutated in _mutations(protocol.encode_body(obj), data):
        try:
            got = protocol.decode_body(mutated)
        except ValueError:
            continue
        assert _shape(got) == _shape(ast.literal_eval(mutated.decode()))


@given(st.text(max_size=40))
@example("(1, ?)\x00'unterminated")
def test_property_tokenizer_consumes_every_character(text):
    # Every character lands in some token: nothing is skipped silently.
    assert protocol._TOKEN.sub("", text) == ""


@pytest.mark.parametrize(
    "body",
    [
        b"(1, 2",  # truncated
        b"(1 2)",  # dropped separator
        b"(1,2)",  # non-canonical spacing
        b"[1, 2,]",  # trailing comma only a 1-tuple has
        b"{1, 2}",  # a set, not a dict
        b'"abc"',  # repr would choose single quotes
        b"(1]",  # mismatched closer
        b"1)",  # unbalanced closer
        b"{[1]: 2}",  # unhashable key
        b"1 + 2",  # an expression, not a literal
        b"x",  # a name
        b"",
        b"\xff",  # not UTF-8
        "\u0663".encode(),  # a non-ASCII digit int() would accept
        b"'\\q'",  # an escape repr never writes
        b"b'\\q'",  # ... nor in bytes
        b"'a\\q', 'b'",  # ... even past the first token
        b"'it's'",  # a stray unescaped quote
        b"('a', 'b'c')",  # a literal glued to a name
        b"'abc",  # unterminated
        b"('abc, 1)",  # unterminated, with more tokens behind it
        b"b'abc",  # unterminated bytes
    ],
)
@pytest.mark.filterwarnings("error")
def test_non_canonical_bodies_raise_value_error(body):
    with pytest.raises(ValueError):
        protocol.decode_body(body)


@pytest.mark.parametrize(
    "obj",
    [
        "a\\",  # ends in an escaped backslash: not a quote-free token
        "it's \"",  # both quotes: repr escapes the single one
        "x\ny\t\x00",
        b"\x00'",
        b"\x00'\"",
        b"\x00",  # a quote-free bytes token that carries escapes
        ["a\\", "b", b"c\\", b"d"],
        "\\'",
    ],
)
@pytest.mark.filterwarnings("error")
def test_escaped_literals_decode_exactly(obj):
    body = protocol.encode_body(obj)
    assert _shape(protocol.decode_body(body)) == _shape(ast.literal_eval(body.decode())) == _shape(obj)


def _kv_frames() -> list[bytes]:
    server = KvServer(n_keys=200)
    factory = KvRequestFactory(server, World(seed=1), batch_size=1000)
    batch, _check, _n = factory(0)
    results = protocol.encode_body(
        ("RESULTS", ["OK" if j % 2 == 0 else server._initial_value(j).decode() for j in range(1000)])
    )
    return [batch, results]


def test_kv_frames_decode_without_parsing_python(monkeypatch):
    calls = []
    real_parse, real_compile = ast.parse, builtins.compile

    def counting_parse(*args, **kwargs):
        calls.append("ast.parse")
        return real_parse(*args, **kwargs)

    def counting_compile(*args, **kwargs):
        calls.append("compile")
        return real_compile(*args, **kwargs)

    frames = _kv_frames()
    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(builtins, "compile", counting_compile)
    decoded = [protocol.decode_body(body) for body in frames]
    assert calls == []
    monkeypatch.undo()
    assert decoded == [ast.literal_eval(body.decode()) for body in frames]
    assert [kind for kind, _ in decoded] == ["BATCH", "RESULTS"]


# -- wire bytes are pinned: every simulated byte count depends on them ------

def test_kv_batch_wire_bytes_pinned():
    factory = KvRequestFactory(KvServer(n_keys=100, value_len=24), World(seed=1), batch_size=4)
    body, _check, _n = factory(3)
    assert protocol.frame(body) == (
        b"00000128('BATCH', [('set', 0, 'k000000@0000003.0000....'), ('get', 9, None), "
        b"('set', 1, 'k000001@0000003.0002....'), ('get', 31, None)])"
    )


def test_kv_results_wire_bytes_pinned():
    results = ["OK", "k000017=init" + "." * 12, "OK", ""]
    assert protocol.frame(protocol.encode_body(("RESULTS", results))) == (
        b"00000057('RESULTS', ['OK', 'k000017=init............', 'OK', ''])"
    )


def test_webserver_request_wire_bytes_pinned():
    assert protocol.frame(protocol.encode_body(("GET", 42))) == b"00000011('GET', 42)"


def test_image_meta_blob_bytes_pinned():
    heap = Vma(start=0x10000, n_pages=4, kind="heap", name="[heap]")
    assert _meta_image([heap.describe()]) == (
        b"NLCN[{'start': 65536, 'n_pages': 4, 'prot': 'rw-', 'kind': 'heap', "
        b"'file_path': None, 'file_offset': 0, 'name': '[heap]'}]"
    )
