"""Client for the optimization job server.

:class:`JobClient` dials a :class:`~repro.serve.JobServer` over the pooled
:mod:`repro.net` channel the cache backends share (one socket per
``(address, authkey)`` per process, request/reply serialized by its io
lock), so a process talking to a server and its caches holds a bounded
number of sockets no matter how many clients it builds.

A job id is the whole session: :meth:`submit` returns one, and any client
anywhere holding it can :meth:`status`, :meth:`incumbents`, :meth:`result`,
or :meth:`cancel` the job — detach by forgetting the connection, reattach
by dialing again.  :meth:`stream` turns the incumbent feed into a generator
of :class:`~repro.serve.IncumbentPoint` — the live fig07 anytime trace of a
running job.
"""

from __future__ import annotations

import time

from repro import net
from repro.serve.protocol import JobSpec, serve_authkey


class JobClient:
    """Talk to a job server at ``(host, port)``.

    Stateless apart from the pooled socket: safe to build many of these per
    process, cheap to rebuild after a disconnect.  Usable as a context
    manager; :meth:`close` only drops this process's pooled connection.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: "bytes | None" = None,
        address: "tuple[str, int] | None" = None,
    ) -> None:
        if address is not None:
            host, port = address
        self.address = (str(host), int(port))
        self.authkey = bytes(authkey) if authkey is not None else serve_authkey()

    def _request(self, op: str, payload=None):
        last_attempt = 4
        for attempt in range(last_attempt + 1):
            try:
                return net.request(self.address, self.authkey, op, payload)
            except net.UndeliveredRequest:
                # Nothing reached the server (e.g. a sibling client's close()
                # dropped the pooled socket): re-dial and retry — a failed
                # *send* is always safe to repeat, and each sibling close can
                # sink at most one attempt.  A truly dead server stops the
                # loop earlier: the re-dial itself raises.  A failed
                # *receive* is never retried: the request may have been
                # acted on.
                if attempt == last_attempt:
                    raise

    # -- job lifecycle ---------------------------------------------------------

    def ping(self) -> bool:
        return self._request("ping") == "pong"

    def submit(self, spec: JobSpec) -> str:
        """Submit a job; the returned id is the handle for its whole life."""
        return self._request("submit", spec)

    def status(self, job_id: str):
        return self._request("status", job_id)

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; False if the job was already terminal."""
        return self._request("cancel", job_id)

    def incumbents(self, job_id: str, since_seq: int = 0) -> list:
        """Incumbent improvements newer than ``since_seq`` (anytime trace)."""
        return self._request("incumbents", (job_id, since_seq))

    def result(self, job_id: str, wait: bool = True, timeout: "float | None" = None,
               poll: float = 0.05):
        """``(JobStatus, PortfolioResult | None)`` for the job.

        With ``wait`` (the default) polls until the job reaches a terminal
        state; ``wait=False`` returns the anytime snapshot immediately.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status, result = self._request("result", job_id)
            if not wait or status.terminal:
                return status, result
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status.state!r} after {timeout:.1f}s"
                )
            time.sleep(poll)

    def stream(self, job_id: str, poll: float = 0.05, timeout: "float | None" = None):
        """Yield :class:`IncumbentPoint` s as the job improves, until terminal.

        The live anytime trace: seq 1 is the starting cost, every later
        point is a strict improvement.  Reattachable — a new client calling
        ``stream`` with ``since`` state lost simply replays from the start.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        seen = 0
        while True:
            for point in self._request("incumbents", (job_id, seen)):
                seen = point.seq
                yield point
            if self._request("status", job_id).terminal:
                # One last drain: improvements landed between the poll and
                # the terminal transition must not be lost.
                for point in self._request("incumbents", (job_id, seen)):
                    seen = point.seq
                    yield point
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still live after {timeout:.1f}s")
            time.sleep(poll)

    # -- server-level ops ------------------------------------------------------

    def jobs(self, tenant: "str | None" = None) -> list:
        """Status of every job the server knows (optionally one tenant's)."""
        return self._request("jobs", tenant)

    def server_stats(self) -> dict:
        return self._request("stats")

    def shutdown_server(self) -> None:
        """Ask the server to drain and exit (it finalizes anytime results)."""
        self._request("shutdown")
        self.close()

    def close(self) -> None:
        """Drop this process's pooled connection to the server.

        Waits for the channel's io lock first, so a request another thread
        has in flight on the shared socket completes before it closes (that
        thread's *next* request transparently re-dials).
        """
        try:
            _, io_lock = net.pooled_channel(self.address, self.authkey)
        except Exception:  # noqa: BLE001 - nothing to close if dialing fails
            return
        with io_lock:
            net.drop_pooled_channel(self.address, self.authkey)

    def __enter__(self) -> "JobClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["JobClient"]
