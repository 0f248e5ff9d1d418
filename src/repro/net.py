"""The one RPC transport every network surface shares.

The cache servers (:mod:`repro.perf.shared_cache`), the distrib coordinator
and host agents (:mod:`repro.distrib`), and the job server and its clients
(:mod:`repro.serve`) all speak length-prefixed pickle ``(op, payload)``
requests answered by ``(ok, result)`` replies over
``multiprocessing.connection``.  This module holds the pieces they used to
carry one copy each of:

* :func:`authkey` — the connection handshake key, from an environment
  variable or a built-in default (multiprocessing's HMAC challenge: a
  handshake, not a security boundary);
* :func:`pooled_channel` / :func:`request` — one client connection per
  ``(address, authkey)`` per process, with an I/O lock serializing
  request/reply pairs on it; :func:`drain_connection_pool` closes them all;
* :func:`serve_forever` — an accept loop that hands each connection to a
  daemon handler thread;
* :func:`wake` — the raw timed connect that unblocks an ``accept()`` when a
  server stops;
* :func:`dial` — an authenticated connect that retries while the peer
  comes up.

The pool is fork-safe.  A forked child inherits the parent's pooled
``Connection`` objects — the same file descriptors, guarded by
``threading.Lock`` s that do not serialize across processes — so two
processes would interleave frames on one socket.  An ``os.register_at_fork``
hook therefore gives every child an empty pool and a fresh guard; it closes
the child's copies of the inherited descriptors, which sends nothing to the
peer, so the parent's sockets stay open.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from multiprocessing.connection import Client


def authkey(env_var: str, default: bytes) -> bytes:
    """The handshake key: ``$env_var`` when set and non-empty, else ``default``."""
    value = os.environ.get(env_var)
    return value.encode() if value else default


# -- client side: the per-process connection pool ---------------------------

#: ``(address, authkey) -> (connection, io_lock)``: one socket per server per
#: process, so a worker that receives many pickled client handles (one per
#: exchange round) dials each server once
_POOL: dict = {}
_POOL_GUARD = threading.Lock()


def _pool_key(address, key: bytes) -> tuple:
    # Addresses arrive as lists after some round trips; lists do not hash.
    return (tuple(address) if isinstance(address, (list, tuple)) else address, key)


def _close_quietly(connection) -> None:
    try:
        connection.close()
    except OSError:
        pass


def pooled_channel(address, key: bytes):
    """Dial (or reuse) this process's connection to ``address``.

    Returns ``(connection, io_lock)``; hold the lock for a whole
    request/reply pair.  The dial happens outside the pool guard, so a slow
    or black-holed server never stalls other threads' traffic to healthy
    ones; a lost dial race closes the extra socket.
    """
    pool_key = _pool_key(address, key)
    with _POOL_GUARD:
        channel = _POOL.get(pool_key)
    if channel is not None:
        return channel
    connection = Client(address, authkey=key)
    with _POOL_GUARD:
        channel = _POOL.setdefault(pool_key, (connection, threading.Lock()))
    if channel[0] is not connection:
        _close_quietly(connection)
    return channel


def drop_pooled_channel(address, key: bytes, connection=None) -> None:
    """Close and forget the pooled connection to ``address``.

    With ``connection``, only that very connection is dropped: a thread
    whose request failed must not close a fresh channel another thread has
    already redialed.
    """
    pool_key = _pool_key(address, key)
    with _POOL_GUARD:
        channel = _POOL.get(pool_key)
        if channel is None or (connection is not None and channel[0] is not connection):
            return
        del _POOL[pool_key]
    _close_quietly(channel[0])


class UndeliveredRequest(ConnectionError):
    """The request never reached the server, so repeating it is safe."""


def request(address, key: bytes, op: str, payload=None):
    """One ``(op, payload)`` round trip on the pooled channel; returns the result.

    A ``(False, message)`` reply raises ``RuntimeError``.  A
    connection-level failure drops the pooled socket (the next request
    redials) and re-raises: a failed *send* as :class:`UndeliveredRequest`,
    a failed *receive* as itself — the server may have acted on that
    request.
    """
    connection, io_lock = pooled_channel(address, key)
    with io_lock:
        try:
            connection.send((op, payload))
        except OSError as error:
            drop_pooled_channel(address, key, connection)
            raise UndeliveredRequest(f"{op!r} to {address} not sent: {error!r}") from error
        try:
            ok, result = connection.recv()
        except (EOFError, OSError):
            drop_pooled_channel(address, key, connection)
            raise
    if not ok:
        raise RuntimeError(f"server {address} rejected {op!r}: {result}")
    return result


def drain_connection_pool() -> int:
    """Close every pooled connection this process holds; returns the count.

    A long-lived process that outlives many runs against *different*
    servers (a ``repro.distrib`` host agent serving shard after shard)
    calls this between runs so dead servers' sockets don't accumulate.
    Call it at a quiescent point: a socket closed under an active request
    surfaces as a connection error to that request.  The next request
    simply redials.
    """
    with _POOL_GUARD:
        channels = list(_POOL.values())
        _POOL.clear()
    for connection, _ in channels:
        _close_quietly(connection)
    return len(channels)


def _forget_inherited_pool() -> None:
    """``after_in_child`` fork hook: the child starts with its own pool."""
    global _POOL, _POOL_GUARD
    inherited = _POOL
    _POOL = {}
    _POOL_GUARD = threading.Lock()
    for connection, _ in inherited.values():
        _close_quietly(connection)


os.register_at_fork(after_in_child=_forget_inherited_pool)


def dial(address, key: bytes, retry_for: float = 0.0, interval: float = 0.2):
    """An authenticated (unpooled) connection, retried for ``retry_for`` seconds."""
    deadline = time.monotonic() + retry_for
    while True:
        try:
            return Client(address, authkey=key)
        except (ConnectionError, OSError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(interval)


# -- server side ---------------------------------------------------------------


def serve_forever(listener, handle, stopped, name: "str | None" = None) -> None:
    """Accept until ``stopped()``; run ``handle(connection)`` on a daemon thread each.

    ``accept`` blocks, so whoever makes ``stopped()`` true must also
    :func:`wake` the listener.  A failed handshake (a wake-up, a client with
    the wrong key) never ends the loop.
    """
    while not stopped():
        try:
            connection = listener.accept()
        except Exception:  # noqa: BLE001 - re-check the stop condition
            continue
        threading.Thread(target=handle, args=(connection,), daemon=True, name=name).start()


def wake(address, timeout: float = 2.0) -> None:
    """Unblock ``accept()`` on ``address`` with a raw timed connect.

    Not an authenticated ``Client``: if the accept loop has already exited,
    a full dial would wait in the listen backlog for a challenge nobody
    sends.
    """
    try:
        socket.create_connection(tuple(address), timeout=timeout).close()
    except OSError:
        pass


__all__ = [
    "UndeliveredRequest",
    "authkey",
    "dial",
    "drain_connection_pool",
    "drop_pooled_channel",
    "pooled_channel",
    "request",
    "serve_forever",
    "wake",
]
