"""Message-oriented transport over a simulated link.

The TLS record layer runs on top of :class:`Connection`: a pair of framed
message endpoints whose transfers charge the shared virtual clock.  The
simulation is synchronous and event-driven on one thread: if the peer has
registered a receiver callback (servers do), a sent message is delivered
— and processed — inline; otherwise it queues in the peer's inbox until
``recv`` (clients poll this way).

``Listener``/``Endpoint`` give server and client code a socket-like shape
so the untrusted TLS terminator reads like network code.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import NetworkError
from repro.netsim.network import Link


class Connection:
    """One side of an established connection."""

    def __init__(self, link: Link, is_client: bool) -> None:
        self._link = link
        self._is_client = is_client
        self._inbox: deque[bytes] = deque()
        self._receiver: Callable[[bytes], None] | None = None
        self._on_close: Callable[[], None] | None = None
        self._closed = False
        self.peer: "Connection | None" = None

    # -- sending -------------------------------------------------------------

    def send(self, message: bytes) -> None:
        """Send a message, paying propagation delay plus serialization time."""
        self._ensure_open()
        if self._is_client:
            self._link.transfer_up(len(message))
        else:
            self._link.transfer_down(len(message))
        self._deliver_to_peer(message)

    def send_stream(self, message: bytes) -> None:
        """Send a follow-up chunk of an already-flowing stream.

        Streamed chunks after the first do not pay propagation delay again
        (the pipe is full); this models the paper's interleaved streaming.
        """
        self._ensure_open()
        if self._is_client:
            self._link.stream_up(len(message))
        else:
            self._link.stream_down(len(message))
        self._deliver_to_peer(message)

    def _deliver_to_peer(self, message: bytes) -> None:
        peer = self.peer
        if peer is None or peer._closed:
            raise NetworkError("peer is gone")
        # A faulty link may deliver 0 copies (silent loss) or several
        # (duplication); a healthy link always answers 1.
        for _ in range(self._link.delivery_copies()):
            if peer._receiver is not None:
                peer._receiver(message)
            else:
                peer._inbox.append(message)

    # -- receiving -----------------------------------------------------------

    def set_receiver(self, receiver: Callable[[bytes], None] | None) -> None:
        """Register a push receiver; pending inbox messages are drained into it."""
        self._receiver = receiver
        if receiver is not None:
            while self._inbox:
                receiver(self._inbox.popleft())

    def recv(self) -> bytes:
        self._ensure_open()
        if self._receiver is not None:
            raise NetworkError("connection is in push mode; recv() unavailable")
        if not self._inbox:
            raise NetworkError("no message pending (deadlock in simulated exchange)")
        return self._inbox.popleft()

    def pending(self) -> int:
        return len(self._inbox)

    def set_close_handler(self, handler: Callable[[], None]) -> None:
        """Register what runs once when this end closes (a server frees the
        connection's session)."""
        self._on_close = handler

    def close(self) -> None:
        """Close both ends, as a FIN would: closing either end runs each
        end's close handler once."""
        if self._closed:
            return
        self._closed = True
        if self.peer is not None:
            self.peer.close()
        if self._on_close is not None:
            self._on_close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise NetworkError("connection is closed")


def connection_pair(link: Link) -> tuple[Connection, Connection]:
    """Create the two ends of a connection sharing a link."""
    client = Connection(link, is_client=True)
    server = Connection(link, is_client=False)
    client.peer = server
    server.peer = client
    return client, server


class Listener:
    """Server-side accept hook.

    The server registers an ``on_connect`` callback; each client
    :meth:`Endpoint.connect` synchronously creates a connection pair and
    hands the server end to the callback before the client end is
    returned.
    """

    def __init__(self, link: Link, on_connect: Callable[[Connection], None]) -> None:
        self._link = link
        self._on_connect = on_connect

    def _accept(self) -> Connection:
        # TCP-style connection establishment: one round trip before any
        # application byte flows (the paper measures from request start,
        # which for a fresh connection includes this).
        self._link.clock.charge(self._link.spec.rtt, account="network")
        client_end, server_end = connection_pair(self._link)
        self._on_connect(server_end)
        return client_end


class Endpoint:
    """Client-side connector bound to a listener."""

    def __init__(self, listener: Listener) -> None:
        self._listener = listener

    def connect(self) -> Connection:
        return self._listener._accept()
