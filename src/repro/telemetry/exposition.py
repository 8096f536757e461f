"""Prometheus text exposition (format 0.0.4) and the node scrape endpoint.

The paper's testbed co-locates a Prometheus server with every node and
scrapes it for latency/throughput (§4.1).  :func:`render_text` turns one or
more registries into the text format any Prometheus server parses;
:class:`MetricsHttpServer` serves it over plain HTTP (``GET /metrics``) so
an unmodified Prometheus can scrape a Thetacrypt node, and the ``metrics``
RPC method returns the same document in-band for clients that already hold
an RPC connection.  :func:`parse_text` is the minimal inverse the tests
use to read both scrapes back.
"""

from __future__ import annotations

import asyncio
import math

from .registry import HistogramChild, MetricFamily, MetricRegistry

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace("\"", r"\"").replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(items: tuple[tuple[str, str], ...]) -> str:
    if not items:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in items
    )
    return "{" + inner + "}"


def _render_family(family: MetricFamily, lines: list[str]) -> None:
    lines.append(f"# HELP {family.name} {_escape_help(family.help_text)}")
    lines.append(f"# TYPE {family.name} {family.metric_type}")
    children = sorted(family.children(), key=lambda c: c.label_items)
    for child in children:
        base = child.label_items
        if isinstance(child, HistogramChild):
            for bound, cumulative in child.bucket_counts():
                labels = (*base, ("le", _format_value(bound)))
                lines.append(
                    f"{family.name}_bucket{_format_labels(labels)} {cumulative}"
                )
            lines.append(
                f"{family.name}_sum{_format_labels(base)} "
                f"{_format_value(child.sum)}"
            )
            lines.append(
                f"{family.name}_count{_format_labels(base)} {child.count}"
            )
        else:
            lines.append(
                f"{family.name}{_format_labels(base)} "
                f"{_format_value(child.value)}"
            )


def render_text(*registries: MetricRegistry) -> str:
    """Render registries into one Prometheus text document.

    A node passes its private registry plus the process-global one; families
    appearing in several registries are rendered once (first wins).
    """
    lines: list[str] = []
    seen: set[str] = set()
    for registry in registries:
        for family in registry.collect():
            if family.name in seen:
                continue
            seen.add(family.name)
            _render_family(family, lines)
    return "\n".join(lines) + "\n" if lines else ""


def parse_text(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text back into ``{(name, labels): value}``.

    Intentionally minimal (no escape sequences beyond what we emit); it
    exists so tests and the smoke gate can assert on scrape output without
    an external Prometheus client library.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"unparseable sample line {line!r}")
        labels: tuple[tuple[str, str], ...] = ()
        if "{" in name_part:
            name, _, label_blob = name_part.partition("{")
            label_blob = label_blob.rstrip("}")
            items = []
            for pair in _split_label_pairs(label_blob):
                label_name, _, label_value = pair.partition("=")
                items.append(
                    (
                        label_name,
                        label_value.strip('"')
                        .replace(r"\"", '"')
                        .replace(r"\n", "\n")
                        .replace(r"\\", "\\"),
                    )
                )
            labels = tuple(items)
        else:
            name = name_part
        value = float("inf") if value_part == "+Inf" else float(value_part)
        out[(name, labels)] = value
    return out


def _split_label_pairs(blob: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    pairs, current, in_quotes, escaped = [], [], False, False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        pairs.append("".join(current))
    return [p for p in (p.strip() for p in pairs) if p]


class MetricsHttpServer:
    """A tiny asyncio HTTP/1.1 server exposing ``GET /metrics``.

    Uses only the standard library so the scrape endpoint works in every
    deployment the repo supports; anything but ``GET /metrics`` gets a 404.
    """

    def __init__(self, render, host: str, port: int):
        self._render = render  # () -> str, typically the node's merged view
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None or not self._server.sockets:
            return self._host, self._port
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            while True:  # drain headers until the blank line
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            if len(parts) >= 2 and parts[0] == "GET" and (
                parts[1] == "/metrics" or parts[1].startswith("/metrics?")
            ):
                body = self._render().encode("utf-8")
                status = "200 OK"
            else:
                body = b"not found\n"
                status = "404 Not Found"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {CONTENT_TYPE}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
