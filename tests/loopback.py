"""Run serve_tcp on a free loopback port with one client that reads the
whole stream, as a deployed `lpyolo serve` is used."""

from __future__ import annotations

import queue
import socket
import threading

from lpyolo.pipeline import read_frame, serve_tcp


def read_stream(sock):
    """Every frame message on sock, in arrival order. The stream must end
    with the end marker and then close; anything else raises."""
    f = sock.makefile("rb")
    msgs = []
    while (msg := read_frame(f)) is not None:
        msgs.append(msg)
    assert f.read() == b"", "bytes after the end marker"
    return msgs


def serve_one_client(frames, model, **kwargs):
    """Serve frames to one reading client; return (the messages it read,
    serve_tcp's stats). kwargs go to serve_tcp."""
    bound: queue.Queue = queue.Queue()
    result = {}

    def serve():
        try:
            result["stats"] = serve_tcp(("127.0.0.1", 0), frames, model,
                                        on_bound=bound.put, **kwargs)
        except BaseException as e:  # re-raised in the test's thread below
            result["error"] = e
            bound.put(None)

    # daemon: a server that never returns must not outlive the test run
    t = threading.Thread(target=serve, daemon=True)
    t.start()
    addr = bound.get(timeout=10)
    if addr is not None:
        with socket.create_connection(addr, timeout=30) as cli:
            msgs = read_stream(cli)
    t.join(timeout=30)
    assert not t.is_alive(), "serve_tcp did not return"
    if "error" in result:
        raise result["error"]
    return msgs, result["stats"]
