"""Wire protocol helpers for workload traffic.

All workload requests/responses are length-prefixed frames of real bytes —
they flow through the simulated TCP stack, get buffered by the plug qdisc,
survive checkpoints inside socket read/write queues, and are re-parsed
after failover.  A frame body is the ``repr`` of a Python literal (values
are ASCII, so wire sizes are faithful).  :func:`decode_body` parses exactly
that grammar — ``str``, ``bytes``, ``int``, ``None``/``True``/``False``,
``tuple``, ``list`` and ``dict`` — with one regex tokenizer and a stack
builder, and accepts a body only if re-encoding the value reproduces it
byte for byte.  Nothing is compiled: a frame never reaches ``ast``.
"""

from __future__ import annotations

import re
from typing import Any

__all__ = ["decode_body", "encode_body", "frame", "peel_frame", "frame_ready"]

HEADER_LEN = 8  # ASCII decimal length, zero-padded


def frame(body: bytes) -> bytes:
    """Length-prefix *body*."""
    return f"{len(body):0{HEADER_LEN}d}".encode() + body


def frame_ready(buffer: bytes) -> int:
    """Bytes needed for the next complete frame (0 if one is ready).

    Returns the *additional* byte count required, so callers can pass it to
    ``data_available(min_bytes=...)`` without busy-looping on partials.
    """
    if len(buffer) < HEADER_LEN:
        return HEADER_LEN - len(buffer)
    body_len = int(buffer[:HEADER_LEN])
    total = HEADER_LEN + body_len
    return max(0, total - len(buffer))


def peel_frame(buffer: bytes) -> tuple[bytes | None, bytes]:
    """Split off one complete frame: ``(body | None, remainder)``."""
    if frame_ready(buffer) != 0:
        return None, buffer
    body_len = int(buffer[:HEADER_LEN])
    body = buffer[HEADER_LEN : HEADER_LEN + body_len]
    return body, buffer[HEADER_LEN + body_len :]


def encode_body(obj: Any) -> bytes:
    """Encode a python-literal message (tuples/lists/dicts/str/int/bytes)."""
    return repr(obj).encode()


#: The escapes ``repr`` writes inside a ``str`` or ``bytes`` literal.
_ESCAPE = r"\\(?:[\\'nrt]|x[0-9a-f]{2}|u[0-9a-f]{4}|U[0-9a-f]{8})"
#: One token per match, optionally preceded by the ``", "`` / ``","`` /
#: ``": "`` separator that ``repr`` puts before it.  The final ``.``
#: alternative matches any character no other alternative starts with, so
#: every character of the body lands in some token and none is skipped;
#: the builder rejects such a token by its first character (a stray quote
#: or ``b`` becomes an empty literal that the final ``repr`` comparison
#: rejects, as it rejects a closer that does not match its opener).
_TOKEN = re.compile(
    r"""(?:,\ ?|:\ )?(
        '[^'\\]*(?:{esc}[^'\\]*)*'
      | -?[0-9]+
      | [()\[\]{{}}]
      | None | True | False
      | b'[^'\\]*(?:{esc}[^'\\]*)*'
      | b?"[^"\\]*(?:{esc}[^"\\]*)*"
      | .
    )""".format(esc=_ESCAPE),
    re.VERBOSE | re.DOTALL,
)
_CONSTANTS = {"None": None, "True": True, "False": False}


def _unescape_str(inner: str) -> str:
    # Printable non-ASCII stays literal in repr; route it through \uXXXX
    # escapes so unicode_escape never reinterprets UTF-8 bytes.
    return inner.encode("latin-1", "backslashreplace").decode("unicode_escape")


def _bytes_token(tok: str) -> bytes:
    raw = tok[2:-1].encode("ascii")
    if b"\\" in raw:
        return raw.decode("unicode_escape").encode("latin-1")
    return raw


def decode_body(body: bytes) -> Any:
    """Inverse of :func:`encode_body`.

    Raises :class:`ValueError` unless *body* is exactly the ``repr`` of a
    literal of the grammar above (so a truncated or corrupted frame never
    decodes to a different value).
    """
    text = body.decode()
    stack: list[list] = []
    items: list = []
    for tok in _TOKEN.findall(text):
        c = tok[0]
        if c == "'":
            value = tok[1:-1]
            if "\\" in value:
                value = _unescape_str(value)
            items.append(value)
        elif c in "-0123456789":
            items.append(int(tok))
        elif c in "([{":
            stack.append(items)
            items = []
        elif c in ")]}":
            if not stack:
                raise ValueError(f"unbalanced {c!r} in frame body")
            parent = stack.pop()
            if c == ")":
                parent.append(tuple(items))
            elif c == "]":
                parent.append(items)
            else:
                pairs = iter(items)
                try:
                    parent.append(dict(zip(pairs, pairs)))
                except TypeError as exc:  # unhashable key
                    raise ValueError(f"bad dict in frame body: {exc}") from None
            items = parent
        elif tok in _CONSTANTS:
            items.append(_CONSTANTS[tok])
        elif c == '"':
            items.append(_unescape_str(tok[1:-1]))
        elif c == "b":
            items.append(_bytes_token(tok))
        else:
            raise ValueError(f"unexpected {tok!r} in frame body")
    if stack or len(items) != 1:
        raise ValueError("frame body is not a single literal")
    value = items[0]
    if repr(value) != text:
        raise ValueError("frame body is not the canonical encoding of its value")
    return value
