"""Standalone TCP resynthesis-cache server for multi-host clusters.

``python -m repro.distrib.cache_server --port 8799`` serves one
:class:`~repro.perf.shared_cache._BucketStore` over an ``AF_INET``
``multiprocessing.connection.Listener``, speaking the length-prefixed
pickle ``(op, payload)`` protocol of :mod:`repro.net` — which is exactly
what :class:`~repro.perf.shared_cache.TcpCacheBackend` clients dial.  Run
one (or several — clients shard keys across them with consistent hashing)
near your host agents, then point every portfolio at
``share_resynthesis_cache="tcp://host:port[,host:port...]"``.

Unlike the loopback server a ``server:`` spec spawns for one run, a network
cache server's lifetime deliberately spans many runs and many hosts: a warm
store keeps serving synthesis results to tomorrow's runs.  Stop it by
killing the process (or sending the protocol ``shutdown`` op).

:func:`start_tcp_cache_server` (re-exported from
:mod:`repro.perf.shared_cache`, where the server loop lives) is the spawn
helper tests and examples use to get an ephemeral-port server with a handle
to tear down.
"""

from __future__ import annotations

import argparse

from repro import net
from repro.perf.persist import DEFAULT_FLUSH_INTERVAL
from repro.perf.shared_cache import (
    DEFAULT_TCP_AUTHKEY,
    _serve_cache,
    parse_backend_spec,
    start_tcp_cache_server,
)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib.cache_server",
        description="Serve a shared resynthesis cache over TCP for multi-host portfolios.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="address to bind (0.0.0.0 for LAN)")
    parser.add_argument("--port", type=int, required=True, help="port to bind")
    parser.add_argument(
        "--cache",
        default=None,
        metavar="SPEC",
        help="spec of the store this server serves, e.g. "
        "'local:?store=PATH&flush_every=N&maxsize=N' — the spec's query "
        "values override --maxsize/--match-epsilon",
    )
    parser.add_argument("--maxsize", type=int, default=4096, help="entry bound of the LRU store")
    parser.add_argument("--match-epsilon", type=float, default=1e-9)
    parser.add_argument(
        "--authkey", default=None, help="connection authkey (default: $REPRO_CACHE_AUTHKEY)"
    )
    # Legacy spellings of --cache 'local:?store=...&flush_every=...'; kept
    # working (lowest precedence) but hidden from --help.
    parser.add_argument("--store", default=None, metavar="PATH", help=argparse.SUPPRESS)
    parser.add_argument(
        "--flush-every",
        type=int,
        default=DEFAULT_FLUSH_INTERVAL,
        metavar="PUTS",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    maxsize = args.maxsize
    match_epsilon = args.match_epsilon
    store_path = args.store
    flush_interval = args.flush_every
    if args.cache:
        try:
            spec = parse_backend_spec(args.cache)
        except (ValueError, TypeError) as error:
            parser.error(str(error))
        if spec.kind != "local":
            parser.error(
                f"--cache {args.cache!r}: a cache server serves a local store; "
                "pass a 'local:' spec (clients dial it as tcp://)"
            )
        maxsize = spec.maxsize if spec.maxsize is not None else maxsize
        match_epsilon = spec.match_epsilon if spec.match_epsilon is not None else match_epsilon
        store_path = spec.store_path if spec.store_path is not None else store_path
        flush_interval = spec.flush_interval if spec.flush_interval is not None else flush_interval
    key = (
        args.authkey.encode()
        if args.authkey
        else net.authkey("REPRO_CACHE_AUTHKEY", DEFAULT_TCP_AUTHKEY)
    )
    store_note = f"; store {store_path}" if store_path else ""
    print(
        f"[cache-server] serving on {args.host}:{args.port} "
        f"(maxsize {maxsize}){store_note}; url tcp://{args.host}:{args.port}",
        flush=True,
    )
    # Blocks until a client sends the protocol ``shutdown`` op (or the
    # process is killed); every client connection gets a handler thread.
    _serve_cache(
        None,
        key,
        maxsize,
        match_epsilon,
        (args.host, args.port),
        store_path,
        flush_interval,
    )
    print("[cache-server] shut down")
    return 0


__all__ = ["main", "start_tcp_cache_server"]


if __name__ == "__main__":
    raise SystemExit(main())
