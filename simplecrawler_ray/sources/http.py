"""Real HTTP transport: ``HttpWeb`` speaks the same ``get(url,
request_headers) -> Optional[WebResponse]`` protocol as the synthetic
webs, over actual sockets (stdlib ``http.client`` — no third-party
deps, and NO automatic redirect following: the engine owns redirect
semantics, crawler.ts:1930-1970).

Behavior parity with the reference's fetch path
(src/crawler.ts:1548-1644, 1725-1752):

* connect/read timeout -> ``None`` (the Fetcher maps it to
  STATUS_TIMEOUT / ``fetchtimeout``),
* DNS / connection errors -> ``WebResponse(-1)`` (the code-600
  ``fetchclienterror`` path),
* streaming ``max_resource_size`` abort: if the Content-Length header
  already exceeds the cap the body is never read (the header value is
  reported via ``content_length_override``); otherwise the body is
  read in chunks and the stream is dropped one chunk past the cap —
  the Fetcher sees ``len(body) > max_resource_size`` and emits
  ``fetchdataerror``, exactly like the synthetic oversize route,
* basic auth, custom headers, gzip/deflate passthrough (the Fetcher
  decompresses by Content-Encoding),
* HTTP proxy: plain-http targets use the absolute-URI request form;
  https targets get a CONNECT tunnel (``set_tunnel``) with
  Proxy-Authorization on the CONNECT — the scheme-agnostic behavior of
  the reference's proxy rewrite (src/crawler.ts:766-774),
* connection keep-alive: one connection per (scheme, host, port) is
  kept per THREAD (``threading.local`` — safe under ``fetch_threads``
  batch I/O) and reused while responses are fully drained; a stale
  pooled connection (server closed it between requests) is retried
  once on a fresh socket.

The object is cheap and picklable (the connection pool is per-process
transient state, dropped on pickle), so it broadcasts through
``ray.put`` to fetcher tasks like any other web.
"""

from __future__ import annotations

import base64
import http.client
import socket
import ssl
import threading
from typing import Optional

from ..urlnorm import Uri
from .web import WebResponse

_CHUNK = 64 * 1024
_POOL_MAX = 32  # idle connections kept per thread

# errors that mean "the pooled connection went stale" — retry once fresh
_RETRYABLE = (http.client.RemoteDisconnected, http.client.BadStatusLine,
              http.client.CannotSendRequest, ConnectionResetError,
              BrokenPipeError)


class HttpWeb:
    def __init__(self, timeout_ms: int = 300_000,
                 max_resource_size: int = 16 * 1024 * 1024,
                 user_agent: str = "simplecrawler-ray/1.0",
                 auth_user: Optional[str] = None,
                 auth_pass: Optional[str] = None,
                 custom_headers: Optional[dict] = None,
                 use_proxy: bool = False,
                 proxy_hostname: str = "127.0.0.1",
                 proxy_port: int = 8123,
                 proxy_user: Optional[str] = None,
                 proxy_pass: Optional[str] = None,
                 verify_tls: bool = True,
                 keep_alive: bool = True):
        self.timeout_s = max(timeout_ms, 1) / 1000.0
        self.max_resource_size = max_resource_size
        self.user_agent = user_agent
        self.auth_user, self.auth_pass = auth_user, auth_pass
        self.custom_headers = dict(custom_headers or {})
        self.use_proxy = use_proxy
        self.proxy_hostname, self.proxy_port = proxy_hostname, proxy_port
        self.proxy_user, self.proxy_pass = proxy_user, proxy_pass
        self.verify_tls = verify_tls
        self.keep_alive = keep_alive

    # ------------------------------------------------------- conn pooling

    def __getstate__(self):
        d = self.__dict__.copy()
        d.pop("_tls", None)  # threading.local: per-process, not picklable
        return d

    def _pool(self) -> dict:
        tls = self.__dict__.get("_tls")
        if tls is None:
            tls = self.__dict__.setdefault("_tls", threading.local())
        if not hasattr(tls, "pool"):
            tls.pool = {}
        return tls.pool

    def _ssl_context(self):
        return (None if self.verify_tls
                else ssl._create_unverified_context())

    def _proxy_auth_header(self) -> dict:
        if self.proxy_user is None:
            return {}
        cred = f"{self.proxy_user}:{self.proxy_pass or ''}"
        return {"Proxy-Authorization":
                "Basic " + base64.b64encode(cred.encode()).decode()}

    def _new_conn(self, scheme: str, host: str, port: int):
        if self.use_proxy:
            if scheme == "https":
                # CONNECT tunnel: TLS to the TARGET through the proxy
                conn = http.client.HTTPSConnection(
                    self.proxy_hostname, self.proxy_port,
                    timeout=self.timeout_s, context=self._ssl_context())
                conn.set_tunnel(host, port, headers=self._proxy_auth_header())
                return conn
            return http.client.HTTPConnection(
                self.proxy_hostname, self.proxy_port, timeout=self.timeout_s)
        if scheme == "https":
            return http.client.HTTPSConnection(
                host, port, timeout=self.timeout_s,
                context=self._ssl_context())
        return http.client.HTTPConnection(host, port, timeout=self.timeout_s)

    def _checkout(self, scheme: str, host: str, port: int):
        """-> (conn, pooled): a kept-alive connection if one exists."""
        if self.keep_alive:
            conn = self._pool().pop((scheme, host, port), None)
            if conn is not None:
                return conn, True
        return self._new_conn(scheme, host, port), False

    def _checkin(self, scheme: str, host: str, port: int, conn) -> None:
        pool = self._pool()
        if len(pool) >= _POOL_MAX:
            try:
                conn.close()
            except Exception:
                pass
            return
        pool[(scheme, host, port)] = conn

    # ----------------------------------------------------------- headers

    def _headers(self, request_headers: Optional[dict]) -> dict:
        # keys normalize to lowercase: the Fetcher's request_headers
        # already carry custom headers lowercased, so re-merging them in
        # original case would emit duplicate wire lines (two X-Api-Key /
        # User-Agent headers)
        h = {"user-agent": self.user_agent,
             **{k.lower(): v for k, v in self.custom_headers.items()}}
        if self.auth_user is not None:
            cred = f"{self.auth_user}:{self.auth_pass or ''}"
            h["authorization"] = "Basic " + base64.b64encode(cred.encode()).decode()
        if self.use_proxy and self.proxy_user is not None:
            # plain-http proxying carries the credential per request;
            # https tunnels carry it on the CONNECT instead
            cred = f"{self.proxy_user}:{self.proxy_pass or ''}"
            h["proxy-authorization"] = ("Basic "
                                        + base64.b64encode(cred.encode()).decode())
        for k, v in (request_headers or {}).items():
            h[k.lower()] = v
        return h

    # -------------------------------------------------------------- fetch

    def get(self, url: str, request_headers: Optional[dict] = None
            ) -> Optional[WebResponse]:
        u = Uri.parse(url)
        scheme = (u.protocol or "http").lower()
        host = u.hostname or ""
        if not host:
            return WebResponse(-1)
        port = int(u.port or (443 if scheme == "https" else 80))
        pathq = (u.path or "/") + (("?" + u.query) if u.query else "")
        # absolute-URI form only for plain http through a proxy; https
        # goes origin-form inside the CONNECT tunnel
        target = url if (self.use_proxy and scheme != "https") else pathq
        headers = self._headers(request_headers)

        conn, pooled = self._checkout(scheme, host, port)
        try:
            try:
                conn.request("GET", target, headers=headers)
                r = conn.getresponse()
            except _RETRYABLE:
                if not pooled:
                    raise
                # stale kept-alive socket: retry once on a fresh one
                try:
                    conn.close()
                except Exception:
                    pass
                conn, pooled = self._new_conn(scheme, host, port), False
                conn.request("GET", target, headers=headers)
                r = conn.getresponse()

            headers_out: dict = {}
            set_cookies: list[str] = []
            for k, v in r.getheaders():
                tk = k.title()
                if tk == "Set-Cookie":
                    set_cookies.append(v)
                elif tk in headers_out:
                    headers_out[tk] += ", " + v
                else:
                    headers_out[tk] = v
            if set_cookies:
                headers_out["Set-Cookie"] = (set_cookies[0]
                                             if len(set_cookies) == 1
                                             else set_cookies)
            ct = headers_out.get("Content-Type", "")

            clen = headers_out.get("Content-Length")
            if clen is not None and clen.isdigit() \
                    and int(clen) > self.max_resource_size:
                # header oversize: never read the body (streaming
                # abort); the unread stream poisons the socket, so it
                # is closed, not pooled
                conn.close()
                conn = None
                return WebResponse(r.status, b"", ct, headers_out,
                                   content_length_override=int(clen))

            chunks, total, drained = [], 0, False
            while True:
                chunk = r.read(_CHUNK)
                if not chunk:
                    drained = True
                    break
                chunks.append(chunk)
                total += len(chunk)
                if total > self.max_resource_size:
                    break  # drop the stream one chunk past the cap
            body = b"".join(chunks)
            if self.keep_alive and drained and not r.will_close:
                self._checkin(scheme, host, port, conn)
                conn = None
            return WebResponse(r.status, body, ct, headers_out)
        except (socket.timeout, TimeoutError):
            return None  # Fetcher -> STATUS_TIMEOUT / fetchtimeout
        except (OSError, ConnectionError, ssl.SSLError, http.client.HTTPException):
            return WebResponse(-1)  # Fetcher -> code 600 fetchclienterror
        finally:
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass
