"""Cache storage backends: in-process and a cache-server store over TCP.

:class:`~repro.perf.cache.ResynthesisCache` is split into a *front end* (key
canonicalization, hit verification, per-worker counters — always private to a
worker) and a pluggable *backend* holding the actual ``key -> bucket`` store.
Two backends cover every execution mode:

* ``local`` (:class:`LocalBackend`) — the plain in-process ``OrderedDict``
  LRU.  Shareable across serial/thread workers only; a copy that crosses a
  process boundary becomes private.
* ``tcp`` (:class:`TcpCacheBackend`) — a client of one or more cache-server
  processes, each serving one :class:`_BucketStore` over the length-prefixed
  pickle protocol of ``multiprocessing.connection`` (the transport of
  :mod:`repro.net`).  Keys are consistent-hashed across servers.  A
  ``tcp://host:port,...`` spec dials standalone servers
  (``python -m repro.distrib.cache_server``) whose lifetime spans many runs
  and hosts; the ``server:`` and ``shm:`` specs spawn a loopback server that
  the handle owns and shuts down on :meth:`~TcpCacheBackend.close` — the
  cross-process store a ``processes`` portfolio's workers share.  An
  unreachable server at bring-up raises :class:`SharedCacheUnavailable`; a
  server lost *mid-run* degrades its key range to miss/drop instead of
  failing the run.

Both implement the same small protocol (:class:`CacheBackend`):
``get_many`` / ``put_many`` at bucket granularity (the unit the front end
batches), plus ``stats``/``clear``/``close`` and a ``kind`` tag.  Entries are
:class:`_Entry` records in the *canonical* qubit frame, so a bucket fetched
by any worker can serve any query that canonicalizes to its key.
"""

from __future__ import annotations

import bisect
import hashlib
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import Listener
from typing import Protocol

import numpy as np

from repro import net
from repro.perf.persist import DEFAULT_FLUSH_INTERVAL, CorpusPersister
from repro.synthesis.resynth import ResynthesisOutcome

BACKEND_KINDS = ("local", "tcp")

#: how many pending puts a front end accumulates before flushing to a shared
#: backend (amortizes IPC; see ``ResynthesisCache.write_batch_size``)
DEFAULT_WRITE_BATCH = 8


class SharedCacheUnavailable(RuntimeError):
    """A shared backend could not be brought up on this platform."""


class CacheBackend(Protocol):
    """What the :class:`~repro.perf.cache.ResynthesisCache` front end needs.

    Bucket-granular batched transfers (``get_many``/``put_many``) are the
    whole data plane — the front end batches around them, so a backend only
    ever pays one round trip per batch.
    """

    #: backend kind tag: ``"local"`` or ``"tcp"``
    kind: str
    #: whether the store can run server-side batch synthesis jobs
    #: (``synth_batch``); the batch engine checks this before offloading
    supports_batch_synthesis: bool

    def get_many(self, keys: "list[bytes]") -> "dict[bytes, list[_Entry]]":
        """Fetch the buckets stored under ``keys`` (absent keys omitted)."""
        ...

    def put_many(self, items: "list[tuple[bytes, _Entry]]") -> None:
        """Merge entries into their buckets (refresh-or-append), evicting."""
        ...

    def stats(self) -> dict:
        """Storage counters: ``entries``/``puts``/``evictions``/``negative_entries``."""
        ...

    def clear(self) -> None:
        """Drop every bucket."""
        ...

    def close(self) -> None:
        """Release whatever the backend holds (processes, sockets, nothing)."""
        ...

    def __len__(self) -> int:
        """Total entry count currently stored."""
        ...


@dataclass
class _Entry:
    """One cached outcome, stored in the canonical qubit frame."""

    canonical: np.ndarray
    outcome: "ResynthesisOutcome | None"


def _entries_match(first: np.ndarray, second: np.ndarray, epsilon: float) -> bool:
    """Exact-content test between two canonical (phase-aligned) unitaries."""
    return bool(np.allclose(first, second, rtol=0.0, atol=epsilon))


def _merge_entry(bucket: "list[_Entry]", entry: _Entry, epsilon: float) -> bool:
    """Refresh a content-matching entry in ``bucket`` or append a new one.

    Returns True when the entry was appended (the bucket grew).
    """
    for existing in bucket:
        if _entries_match(existing.canonical, entry.canonical, epsilon):
            existing.outcome = entry.outcome
            return False
    bucket.append(entry)
    return True


class _BucketStore:
    """Thread-safe LRU bucket store: the storage half of the PR 2 cache.

    Holds ``key -> [entries]`` buckets in an ``OrderedDict`` whose order is
    recency (a matched or refreshed key moves to the back; eviction pops the
    front).  ``maxsize`` bounds the total entry count, not the bucket count.
    This is both the ``local`` backend's store and the server process's
    store, so local and server caches share one eviction policy bit for bit.

    ``store_path`` attaches the crash-safe disk tier of
    :mod:`repro.perf.persist`: the corpus file is reloaded (tolerantly —
    a damaged file degrades to its intact prefix plus a note, never a crash)
    on construction, dirty buckets are appended every ``flush_interval``
    puts, and :meth:`snapshot` compacts the file atomically.  Persistence
    never crosses a pickle boundary: a store copy shipped to another process
    drops the persister, so exactly one process ever writes a given file.
    """

    def __init__(
        self,
        maxsize: int = 512,
        match_epsilon: float = 1e-9,
        store_path=None,
        flush_interval: int = DEFAULT_FLUSH_INTERVAL,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.match_epsilon = match_epsilon
        self._buckets: "OrderedDict[bytes, list[_Entry]]" = OrderedDict()
        self._count = 0
        self._puts = 0
        self._evictions = 0
        self._lock = threading.Lock()
        self._persister: "CorpusPersister | None" = None
        if store_path is not None:
            self._persister = CorpusPersister(store_path, flush_interval=flush_interval)
            for key, bucket in self._persister.load().items():
                self._buckets[key] = bucket
                self._count += len(bucket)
            # Reloads respect the live bound: a corpus written under a larger
            # maxsize sheds its least-recent buckets (not counted as runtime
            # evictions — nothing was ever resident here).
            while self._count > self.maxsize and self._buckets:
                _, dropped = self._buckets.popitem(last=False)
                self._count -= len(dropped)

    # -- reads ---------------------------------------------------------------

    def match(self, key: bytes, canonical: np.ndarray) -> "_Entry | None":
        """Find the entry with ``canonical`` content under ``key`` (LRU touch)."""
        with self._lock:
            bucket = self._buckets.get(key)
            if not bucket:
                return None
            for entry in bucket:
                if _entries_match(entry.canonical, canonical, self.match_epsilon):
                    self._buckets.move_to_end(key)
                    return entry
            return None

    def peek(self, key: bytes, canonical: np.ndarray) -> bool:
        """Containment test without touching LRU order or counters."""
        with self._lock:
            bucket = self._buckets.get(key)
            if not bucket:
                return False
            return any(
                _entries_match(entry.canonical, canonical, self.match_epsilon)
                for entry in bucket
            )

    def get_many(self, keys: "list[bytes]") -> "dict[bytes, list[_Entry]]":
        """Fetch the buckets for ``keys`` (LRU touch on each present key)."""
        found: "dict[bytes, list[_Entry]]" = {}
        with self._lock:
            for key in keys:
                bucket = self._buckets.get(key)
                if bucket:
                    self._buckets.move_to_end(key)
                    found[key] = list(bucket)
        return found

    # -- writes --------------------------------------------------------------

    def put_many(self, items: "list[tuple[bytes, _Entry]]") -> None:
        with self._lock:
            for key, entry in items:
                bucket = self._buckets.get(key)
                if bucket is None:
                    bucket = []
                    self._buckets[key] = bucket
                if _merge_entry(bucket, entry, self.match_epsilon):
                    self._count += 1
                self._puts += 1
                self._buckets.move_to_end(key)
                if self._persister is not None:
                    self._persister.record_put(key)
            while self._count > self.maxsize and self._buckets:
                _, evicted = self._buckets.popitem(last=False)
                self._count -= len(evicted)
                self._evictions += len(evicted)
            if self._persister is not None and self._persister.should_flush:
                # Under the lock: append-only I/O on the write path, amortized
                # over ``flush_interval`` puts; a crash between flushes loses
                # at most that window (and the snapshot on shutdown catches
                # the tail for clean exits).
                self._persister.append_dirty(self._buckets)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            negative = sum(
                1
                for bucket in self._buckets.values()
                for entry in bucket
                if entry.outcome is None
            )
            result = {
                "entries": self._count,
                "puts": self._puts,
                "evictions": self._evictions,
                "negative_entries": negative,
            }
            if self._persister is not None:
                result["persist_path"] = self._persister.path
                result["persist_loaded_entries"] = self._persister.loaded_entries
                result["persist_notes"] = list(self._persister.notes)
            return result

    def clear(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._count = 0
            if self._persister is not None:
                # An explicit clear must survive a restart too.
                self._persister.snapshot(self._buckets)

    def snapshot(self) -> bool:
        """Atomically persist the full store; False when not persistent."""
        if self._persister is None:
            return False
        with self._lock:
            self._persister.snapshot(self._buckets)
        return True

    def __len__(self) -> int:
        return self._count

    # -- pickling (private local copies travel with their entries) -----------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        # The disk tier stays with the originating process: if pickled copies
        # kept the path, every worker fork would fight over one corpus file.
        state["_persister"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class LocalBackend(_BucketStore):
    """The in-process backend: a :class:`_BucketStore` with the protocol tag.

    Not shareable across processes — a pickled copy is an independent store
    (the front end records the downgrade when that happens to a shared
    cache).
    """

    kind = "local"
    supports_batch_synthesis = False

    def close(self) -> None:
        """Persist the store if a disk tier is attached; nothing else held."""
        self.snapshot()


# --------------------------------------------------------------------------
# Cache server: a dedicated process speaking length-prefixed pickle messages.
# --------------------------------------------------------------------------

def _serve_client(connection, store: _BucketStore, stop: threading.Event) -> None:
    """Handle one worker connection until it disconnects (server side)."""
    try:
        while not stop.is_set():
            try:
                op, payload = connection.recv()
            except (EOFError, OSError):
                return
            try:
                if op == "get_many":
                    reply = store.get_many(payload)
                elif op == "put_many":
                    store.put_many(payload)
                    reply = len(payload)
                elif op == "stats":
                    reply = store.stats()
                elif op == "len":
                    reply = len(store)
                elif op == "clear":
                    store.clear()
                    reply = None
                elif op == "synth_batch":
                    # Server-side batch synthesis: one vectorized pass fills
                    # the store with a get_many miss-batch's outcomes so many
                    # workers' misses are served by one synthesis sweep.
                    # Imported lazily — repro.synthesis.batch must not load
                    # at perf import time (see its module docstring).
                    from repro.synthesis.batch import synthesize_missing_into_store

                    spec, items = payload
                    reply = synthesize_missing_into_store(store, spec, items)
                elif op == "ping":
                    reply = "pong"
                elif op == "shutdown":
                    stop.set()
                    connection.send((True, None))
                    return
                else:
                    connection.send((False, f"unknown op {op!r}"))
                    continue
                connection.send((True, reply))
            except Exception as error:  # noqa: BLE001 - reported to the client
                connection.send((False, repr(error)))
    finally:
        connection.close()


def _serve_cache(
    bootstrap,
    authkey: bytes,
    maxsize: int,
    match_epsilon: float,
    address,
    store_path=None,
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
) -> None:
    """Cache-server process entry point (spawn-safe: module level, plain args).

    Binds an ``AF_INET`` ``Listener`` on the ``(host, port)`` ``address``,
    reports the bound address back through the ``bootstrap`` pipe if one is
    given, then accepts worker connections until one of them sends
    ``shutdown``.  Every connection is served by a daemon thread against one
    shared :class:`_BucketStore`.

    With a ``store_path`` the store reloads the on-disk corpus at bind time
    and snapshots it on every exit path short of SIGKILL: the protocol
    ``shutdown`` op, an unexpected listener error, and SIGTERM (which is how
    ``Process.terminate()`` and service managers stop the server).  A SIGKILL
    loses only the puts since the last incremental append.
    """
    store = _BucketStore(
        maxsize=maxsize,
        match_epsilon=match_epsilon,
        store_path=store_path,
        flush_interval=flush_interval,
    )
    stop = threading.Event()
    if store_path is not None:
        import signal

        def _graceful_terminate(signum, frame):
            stop.set()
            raise SystemExit(0)  # unwinds accept(); the finally below snapshots

        try:
            signal.signal(signal.SIGTERM, _graceful_terminate)
        except ValueError:
            pass  # not the main thread (embedded use); rely on clean shutdown
    try:
        with Listener(address=address, authkey=bytes(authkey)) as listener:
            if bootstrap is not None:
                bootstrap.send(listener.address)
                bootstrap.close()
            # The client that sends ``shutdown`` wakes the accept loop.
            net.serve_forever(
                listener, lambda connection: _serve_client(connection, store, stop), stop.is_set
            )
    finally:
        store.snapshot()


#: default authentication key for TCP cache servers and clients.  This is a
#: *connection handshake* (multiprocessing's HMAC challenge), not a security
#: boundary — run the servers on a trusted network and override the key via
#: ``REPRO_CACHE_AUTHKEY`` when isolating concurrent clusters.
DEFAULT_TCP_AUTHKEY = b"repro-cache"

TCP_URL_PREFIX = "tcp://"


def start_tcp_cache_server(
    host: str = "127.0.0.1",
    port: int = 0,
    authkey: "bytes | None" = None,
    maxsize: int = 4096,
    match_epsilon: float = 1e-9,
    start_timeout: float = 30.0,
    store_path=None,
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
):
    """Spawn a cache-server process; returns ``(process, (host, port))``.

    ``port=0`` lets the OS pick a free port (the returned address has the
    real one).  The process is a daemon: it dies with its parent unless the
    parent outlives the runs it serves.  Terminate it (or send the protocol
    ``shutdown`` op) to stop it.

    ``store_path`` makes the server crash-safe across restarts: it reloads
    the on-disk corpus before binding (a damaged file degrades to its intact
    prefix with a note, never a crash) and snapshots it on shutdown or
    SIGTERM; ``flush_interval`` bounds how many puts a SIGKILL can lose.
    """
    import multiprocessing

    if authkey is None:
        authkey = net.authkey("REPRO_CACHE_AUTHKEY", DEFAULT_TCP_AUTHKEY)
    context = multiprocessing.get_context()
    bootstrap_recv, bootstrap_send = context.Pipe(duplex=False)
    process = context.Process(
        target=_serve_cache,
        args=(
            bootstrap_send,
            bytes(authkey),
            maxsize,
            match_epsilon,
            (host, port),
            store_path,
            flush_interval,
        ),
        daemon=True,
        name="repro-tcp-cache-server",
    )
    process.start()
    bootstrap_send.close()
    if not bootstrap_recv.poll(start_timeout):
        process.terminate()
        raise SharedCacheUnavailable("tcp cache server did not report an address in time")
    address = bootstrap_recv.recv()
    bootstrap_recv.close()
    return process, (str(address[0]), int(address[1]))


def parse_tcp_cache_url(url: str) -> "list[tuple[str, int]]":
    """Parse ``tcp://host:port,host:port,...`` into ``(host, port)`` pairs.

    Each comma-separated element may repeat the ``tcp://`` prefix (so lists
    built by joining individual URLs parse too).  Hostnames are kept verbatim
    for the resolver; ports must be integers.
    """
    if not url.startswith(TCP_URL_PREFIX):
        raise ValueError(f"expected a {TCP_URL_PREFIX}host:port[,host:port...] URL, got {url!r}")
    servers: "list[tuple[str, int]]" = []
    for element in url[len(TCP_URL_PREFIX) :].split(","):
        element = element.strip()
        if element.startswith(TCP_URL_PREFIX):
            element = element[len(TCP_URL_PREFIX) :]
        if not element:
            continue
        host, separator, port = element.rpartition(":")
        if not separator or not host:
            raise ValueError(f"cache server {element!r} is not host:port (in {url!r})")
        servers.append((host, int(port)))
    if not servers:
        raise ValueError(f"no cache servers in {url!r}")
    return servers


class TcpCacheBackend:
    """Consistent-hash client over one or more AF_INET cache servers.

    Speaks the cache server's ``(op, payload)`` wire protocol over the pooled
    channels of :mod:`repro.net`.  Standalone network servers
    (``python -m repro.distrib.cache_server``) are what let portfolio runs on
    *different machines* share one resynthesis store.

    Keys are sharded across servers on a consistent-hash ring
    (``hash_replicas`` virtual points per server, SHA-1 positioned), so every
    client — on any host — routes a given canonical key to the same server
    without coordination, and adding a server to the URL list remaps only
    ``~1/N`` of the key space.  Batched ``get_many``/``put_many`` calls are
    split per server, so a batch still costs one round trip per *server*
    touched, not per key.

    Failure containment: an unreachable server at construction time raises
    :class:`SharedCacheUnavailable` (callers degrade to a local cache); a
    server that dies *mid-run* has its key range degraded — gets on it miss,
    puts on it are dropped — and the loss is visible in ``stats()`` as
    ``unreachable_servers``/``dropped_requests``.  The run keeps its own
    correctness either way: the cache is a memo, never a source of truth.

    A handle built from a ``tcp://`` spec never owns its servers (their
    lifetime deliberately spans runs and hosts).  One built from the
    ``server:``/``shm:`` spec owns the loopback server it spawned, and
    :meth:`close` shuts that server down; copies pickled into workers never
    own it.  :meth:`close` is idempotent and always drops this process's
    pooled connections.
    """

    kind = "tcp"
    supports_batch_synthesis = True

    def __init__(
        self,
        servers: "list[tuple[str, int]]",
        authkey: "bytes | None" = None,
        hash_replicas: int = 64,
        probe: bool = True,
    ) -> None:
        if not servers:
            raise ValueError("TcpCacheBackend needs at least one (host, port) server")
        if hash_replicas < 1:
            raise ValueError("hash_replicas must be at least 1")
        self.servers = [(str(host), int(port)) for host, port in servers]
        if authkey is None:
            authkey = net.authkey("REPRO_CACHE_AUTHKEY", DEFAULT_TCP_AUTHKEY)
        self.authkey = bytes(authkey)
        self.hash_replicas = hash_replicas
        self._process = None  # the spawned server, on the owning handle only
        self._closed = False
        self._dead: "set[int]" = set()
        self._dropped = 0
        self._stats_lock = threading.Lock()
        self._build_ring()
        if probe:
            self._probe_servers()

    @classmethod
    def from_url(cls, url: str, authkey: "bytes | None" = None) -> "TcpCacheBackend":
        """Build a backend from a ``tcp://host:port,...`` URL."""
        return cls(parse_tcp_cache_url(url), authkey=authkey)

    @property
    def url(self) -> str:
        """The canonical ``tcp://`` URL for these servers."""
        return TCP_URL_PREFIX + ",".join(f"{host}:{port}" for host, port in self.servers)

    # -- consistent hashing --------------------------------------------------

    def _build_ring(self) -> None:
        """Place ``hash_replicas`` virtual points per server on the ring.

        Point positions depend only on the server address (not on list order
        or count), so every client everywhere computes the same ring.
        """
        points: "list[tuple[int, int]]" = []
        for index, (host, port) in enumerate(self.servers):
            for replica in range(self.hash_replicas):
                digest = hashlib.sha1(f"{host}:{port}#{replica}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), index))
        points.sort()
        self._ring_positions = [position for position, _ in points]
        self._ring_servers = [server for _, server in points]

    def _server_for(self, key: bytes) -> int:
        """Index of the server owning ``key`` (first ring point clockwise)."""
        position = int.from_bytes(hashlib.sha1(key).digest()[:8], "big")
        slot = bisect.bisect_right(self._ring_positions, position)
        if slot == len(self._ring_positions):
            slot = 0  # wrap around the ring
        return self._ring_servers[slot]

    def _group_by_server(self, keys) -> "dict[int, list]":
        grouped: "dict[int, list]" = {}
        for item in keys:
            key = item[0] if isinstance(item, tuple) else item
            grouped.setdefault(self._server_for(key), []).append(item)
        return grouped

    # -- wire ----------------------------------------------------------------

    def _probe_servers(self) -> None:
        """Fail fast if any configured server is unreachable at bring-up."""
        for index in range(len(self.servers)):
            try:
                self._request(index, "ping")
            except SharedCacheUnavailable:
                raise
            except Exception as error:
                host, port = self.servers[index]
                raise SharedCacheUnavailable(
                    f"cache server {host}:{port} unreachable: {error!r}"
                ) from error

    def _request(self, server_index: int, op: str, payload=None):
        if self._closed:
            raise RuntimeError("cache backend handle is closed")
        return net.request(self.servers[server_index], self.authkey, op, payload)

    def _request_degraded(self, server_index: int, op: str, payload=None, fallback=None):
        """One request, degrading a dead/dying server to ``fallback``.

        A connection-level failure (which drops the pooled socket) retries
        once on a fresh dial — so a stale pooled connection (server restarted,
        pool drained mid-flight) never condemns a healthy server.  Only a
        failure on the fresh connection marks the server dead and counts
        toward ``dropped_requests``; protocol-level rejections still raise.
        Requests are idempotent at the store level (puts are merges), so the
        retry can never double-apply.
        """
        if server_index in self._dead:
            with self._stats_lock:
                self._dropped += 1
            return fallback
        for attempt in range(2):
            try:
                return self._request(server_index, op, payload)
            except (OSError, EOFError):
                if attempt == 1:
                    self._dead.add(server_index)
                    with self._stats_lock:
                        self._dropped += 1
        return fallback

    # -- protocol ------------------------------------------------------------

    def get_many(self, keys: "list[bytes]") -> "dict[bytes, list[_Entry]]":
        found: "dict[bytes, list[_Entry]]" = {}
        for server_index, server_keys in self._group_by_server(keys).items():
            reply = self._request_degraded(server_index, "get_many", server_keys, fallback={})
            found.update(reply)
        return found

    def put_many(self, items: "list[tuple[bytes, _Entry]]") -> None:
        for server_index, server_items in self._group_by_server(items).items():
            self._request_degraded(server_index, "put_many", server_items)

    def synth_batch(self, spec: dict, items: "list[tuple[bytes, np.ndarray]]") -> dict:
        """Batch synthesis sharded across the ring, degrading dead servers.

        Each item is routed to the server owning its key (the same ring as
        ``get_many``, so the outcomes land where lookups will find them).
        Items owned by a dead server are *not* synthesized remotely — they
        come back in the ``dropped`` count and the caller falls back to
        local scalar synthesis for them; a dying fleet costs speed, never a
        dropped miss.
        """
        totals = {"received": 0, "present": 0, "synthesized": 0, "failures": 0, "dropped": 0}
        for server_index, server_items in self._group_by_server(items).items():
            reply = self._request_degraded(
                server_index, "synth_batch", (spec, server_items), fallback=None
            )
            if reply is None:
                totals["dropped"] += len(server_items)
                continue
            for field_name in ("received", "present", "synthesized", "failures"):
                totals[field_name] += int(reply.get(field_name, 0))
        return totals

    def stats(self) -> dict:
        summed = ("entries", "puts", "evictions", "negative_entries")
        totals = dict.fromkeys(summed, 0)
        persist_notes: "list[str]" = []
        for server_index in range(len(self.servers)):
            reply = self._request_degraded(server_index, "stats", fallback=None)
            if reply:
                for field_name in summed:
                    totals[field_name] += int(reply.get(field_name, 0))
                if "persist_loaded_entries" in reply:  # a server with a corpus file
                    loaded = totals.get("persist_loaded_entries", 0)
                    totals["persist_loaded_entries"] = loaded + int(reply["persist_loaded_entries"])
                # Persistence anomalies (corrupt corpus, failed writes) are
                # recorded server-side; forward them so clients can surface
                # them in PerfReport.notes.
                for note in reply.get("persist_notes", ()) or ():
                    if note not in persist_notes:
                        persist_notes.append(note)
        if persist_notes:
            totals["persist_notes"] = persist_notes
        with self._stats_lock:
            totals["unreachable_servers"] = len(self._dead)
            totals["dropped_requests"] = self._dropped
        return totals

    def clear(self) -> None:
        for server_index in range(len(self.servers)):
            self._request_degraded(server_index, "clear")

    def __len__(self) -> int:
        total = 0
        for server_index in range(len(self.servers)):
            reply = self._request_degraded(server_index, "len", fallback=0)
            total += int(reply or 0)
        return total

    def ping(self) -> bool:
        """True when every configured server answers (dead ones count as no)."""
        return all(
            self._request_degraded(index, "ping", fallback=None) == "pong"
            for index in range(len(self.servers))
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down an owned server; always drop this process's sockets.

        Idempotent.  A handle that does not own its servers never stops
        them — their lifetime spans runs and hosts; stop them via their own
        CLI/process handle.
        """
        if self._closed:
            return
        process, self._process = self._process, None
        if process is not None:
            try:
                self._request(0, "shutdown")
            except (OSError, EOFError, RuntimeError):
                pass  # server already gone
            net.wake(self.servers[0])  # the accept loop must observe the stop
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._closed = True
        for address in self.servers:
            net.drop_pooled_channel(address, self.authkey)

    # -- pickling (workers redial through the per-process pool) --------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_stats_lock"]
        state["_process"] = None  # ownership stays with the spawning handle
        state["_closed"] = False
        state["_dead"] = set()
        state["_dropped"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()


#: query keys the backend-spec grammar accepts, in canonical order
SPEC_QUERY_KEYS = ("store", "flush_every", "maxsize", "match_epsilon")

_SPEC_GRAMMAR = (
    "local:[?store=PATH&flush_every=N&maxsize=N&match_epsilon=X] | "
    "server:[?store=PATH&flush_every=N&maxsize=N&match_epsilon=X] (alias shm:) | "
    "tcp://host:port[,host:port...]"
)


def _reject_client_store_path(store_path, source: str) -> None:
    """The up-front store-path guard: a tcp client owns no disk store.

    Raised *before* any backend machinery is touched, naming the offending
    spec string — a TCP *server* persists via ``--cache 'local:?store=...'``
    (or the legacy ``--store``) on the server side instead.
    """
    if store_path is not None:
        raise ValueError(
            f"store_path applies to the cache server, not the tcp client "
            f"(spec {source!r}); start the server with --cache 'local:?store=PATH' "
            "(or --store PATH) instead"
        )


def _spawn_owned_store(maxsize, match_epsilon, store_path, flush_interval) -> TcpCacheBackend:
    """A loopback cache server under a fresh random authkey, owned by the handle."""
    key = secrets.token_bytes(16)
    process, address = start_tcp_cache_server(
        authkey=key,
        maxsize=maxsize,
        match_epsilon=match_epsilon,
        store_path=store_path,
        flush_interval=flush_interval,
    )
    try:
        backend = TcpCacheBackend([address], authkey=key)
    except BaseException:
        process.terminate()
        raise
    backend._process = process
    return backend


@dataclass(frozen=True)
class BackendSpec:
    """A parsed cache-backend specification — the one way to spell backends.

    Produced by :func:`parse_backend_spec`; two spellings that resolve to the
    same configuration compare equal (``source`` keeps the original text for
    error messages but is excluded from comparison), so ``shm:`` and
    ``server:`` give one spec: ``kind="tcp"`` with no ``servers``, meaning a
    loopback store the run spawns and owns.  ``canonical`` renders the URL
    form back out; :meth:`create` materializes the backend.

    Optional fields left as ``None`` fall back to the defaults supplied at
    :meth:`create` time.
    """

    kind: str
    servers: "tuple[tuple[str, int], ...]" = ()
    store_path: "str | None" = None
    flush_interval: "int | None" = None
    maxsize: "int | None" = None
    match_epsilon: "float | None" = None
    source: str = field(default="", compare=False)

    @property
    def canonical(self) -> str:
        """The canonical URL spelling of this spec."""
        if self.kind == "local":
            base = "local:"
        elif self.servers:
            base = TCP_URL_PREFIX + ",".join(f"{host}:{port}" for host, port in self.servers)
        else:
            base = "server:"
        query = []
        if self.store_path is not None:
            query.append(f"store={self.store_path}")
        if self.flush_interval is not None:
            query.append(f"flush_every={self.flush_interval}")
        if self.maxsize is not None:
            query.append(f"maxsize={self.maxsize}")
        if self.match_epsilon is not None:
            query.append(f"match_epsilon={self.match_epsilon}")
        return base + ("?" + "&".join(query) if query else "")

    def create(
        self,
        maxsize: int = 512,
        match_epsilon: float = 1e-9,
        store_path=None,
        flush_interval: int = DEFAULT_FLUSH_INTERVAL,
    ):
        """Materialize the backend; keyword arguments are *fallbacks* only.

        Values carried by the spec itself (from its query string) win over
        the keyword defaults, so ``parse_backend_spec(s).create()`` honors
        everything encoded in ``s`` while call sites keep passing their own
        defaults through.  Raises :class:`SharedCacheUnavailable` when a tcp
        store cannot be reached or spawned.
        """
        maxsize = self.maxsize if self.maxsize is not None else maxsize
        match_epsilon = self.match_epsilon if self.match_epsilon is not None else match_epsilon
        store_path = self.store_path if self.store_path is not None else store_path
        if self.flush_interval is not None:
            flush_interval = self.flush_interval
        if self.kind == "local":
            return LocalBackend(
                maxsize=maxsize,
                match_epsilon=match_epsilon,
                store_path=store_path,
                flush_interval=flush_interval,
            )
        if self.kind != "tcp":
            raise ValueError(f"backend must be one of {BACKEND_KINDS}, got {self.kind!r}")
        source = self.source or self.canonical
        if self.servers:
            _reject_client_store_path(store_path, source)
        try:
            if self.servers:
                return TcpCacheBackend(list(self.servers))
            return _spawn_owned_store(maxsize, match_epsilon, store_path, flush_interval)
        except SharedCacheUnavailable:
            raise
        except Exception as error:
            raise SharedCacheUnavailable(
                f"tcp cache backend unavailable for {source!r}: {error!r}"
            ) from error


def _parse_spec_query(query: str, source: str) -> dict:
    """Parse a ``store=...&flush_every=...`` spec query string, typed."""
    values: dict = {}
    for part in query.split("&"):
        part = part.strip()
        if not part:
            continue
        name, separator, raw = part.partition("=")
        if not separator or not raw:
            raise ValueError(f"malformed query item {part!r} in backend spec {source!r}")
        if name not in SPEC_QUERY_KEYS:
            raise ValueError(
                f"unknown query key {name!r} in backend spec {source!r} "
                f"(accepted: {', '.join(SPEC_QUERY_KEYS)})"
            )
        try:
            if name == "store":
                values["store_path"] = raw
            elif name == "flush_every":
                values["flush_interval"] = int(raw)
            elif name == "match_epsilon":
                values["match_epsilon"] = float(raw)
            else:
                values[name] = int(raw)
        except ValueError as error:
            raise ValueError(
                f"bad value {raw!r} for query key {name!r} in backend spec {source!r}"
            ) from error
    return values


def parse_backend_spec(spec, parameter: "str | None" = None) -> BackendSpec:
    """Parse a cache-backend spelling into a :class:`BackendSpec`.

    The one grammar every cache-configuration surface routes through
    (``create_backend``, ``share_resynthesis_cache=``, ``resynthesis_cache=``,
    the serve/coordinator/cache-server ``--cache`` flags)::

        local:[?store=PATH&flush_every=N&maxsize=N&match_epsilon=X]
        server:[?store=PATH&flush_every=N&maxsize=N&match_epsilon=X]
        shm:[?...]                       (alias of server:)
        tcp://host:port[,host:port...][?maxsize=N&match_epsilon=X]

    ``server:`` (and its alias ``shm:``) is a loopback tcp store the run
    spawns and owns; ``tcp://`` dials servers that already run.  Validation
    is up-front: malformed specs, unknown query keys, ``store`` on a tcp
    client, and the retired ``True``/bare-kind spellings all raise
    :class:`ValueError` naming the offending spec string (and ``parameter``,
    the argument it came in through, when given) before any machinery is
    touched.
    """
    if isinstance(spec, BackendSpec):
        return spec
    where = f" (passed as {parameter})" if parameter else ""
    if spec is True:
        raise ValueError(
            f"True is not a backend spec{where}; pass 'local:' instead; "
            f"expected {_SPEC_GRAMMAR}"
        )
    if not isinstance(spec, str):
        raise TypeError(f"backend spec must be a string or BackendSpec, got {type(spec).__name__}")
    source = spec
    if spec.startswith(TCP_URL_PREFIX):
        base, _, query = spec.partition("?")
        values = _parse_spec_query(query, source)
        servers = tuple(parse_tcp_cache_url(base))
        _reject_client_store_path(values.get("store_path"), source)
        return BackendSpec(kind="tcp", servers=servers, source=source, **values)
    kind, separator, rest = spec.partition(":")
    if separator and kind in ("local", "server", "shm"):
        if rest and not rest.startswith("?"):
            raise ValueError(
                f"unrecognized backend spec {source!r}{where}; expected {_SPEC_GRAMMAR}"
            )
        values = _parse_spec_query(rest[1:] if rest else "", source)
        return BackendSpec(kind="local" if kind == "local" else "tcp", source=source, **values)
    raise ValueError(f"unrecognized backend spec {source!r}{where}; expected {_SPEC_GRAMMAR}")


def create_backend(
    kind,
    maxsize: int = 512,
    match_epsilon: float = 1e-9,
    store_path=None,
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
):
    """Build a cache backend from a spec, or raise :class:`SharedCacheUnavailable`.

    A thin shim over :func:`parse_backend_spec` + :meth:`BackendSpec.create`:
    ``kind`` may be any accepted spec spelling (``"local:"``, ``"server:"``,
    ``"shm:"``, ``"tcp://host:port[,...]?..."``) or a :class:`BackendSpec`.
    Keyword arguments are fallbacks for anything the spec's query string
    doesn't pin.

    ``local`` always succeeds; a tcp store needs working subprocess/socket
    machinery (``server:``) or reachable network cache servers
    (``tcp://``), so any bring-up failure is wrapped in
    :class:`SharedCacheUnavailable` for callers to catch and degrade.

    ``store_path`` attaches the crash-safe disk tier (``docs/caching.md``,
    "Persistence tier") to the backends that own a store: ``local`` reloads
    on construction and persists on ``close()``; ``server:`` hands the path
    to the server it spawns.  A ``tcp://`` client owns no store, so the
    combination is rejected up front with an error naming the spec.
    """
    spec = parse_backend_spec(kind)
    return spec.create(
        maxsize=maxsize,
        match_epsilon=match_epsilon,
        store_path=store_path,
        flush_interval=flush_interval,
    )


__all__ = [
    "BACKEND_KINDS",
    "BackendSpec",
    "CacheBackend",
    "DEFAULT_TCP_AUTHKEY",
    "DEFAULT_WRITE_BATCH",
    "LocalBackend",
    "SPEC_QUERY_KEYS",
    "SharedCacheUnavailable",
    "TcpCacheBackend",
    "create_backend",
    "parse_backend_spec",
    "parse_tcp_cache_url",
    "start_tcp_cache_server",
]
