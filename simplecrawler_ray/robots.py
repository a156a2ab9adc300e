"""robots.txt parsing and per-host rule application.

The reference delegates to the ``robots-parser`` npm package
(src/crawler.ts:17,1308-1309) and keeps one parsed rule-set per touched
host (``_robotsTxts``, src/crawler.ts:602-603), fetched once per host
(``_fetch_and_parse``, src/crawler.ts:1296-1335).  This is a from-scratch
parser of the same public spec (Google's robots.txt RFC 9309 subset):
User-agent groups, Allow/Disallow with ``*`` wildcards and ``$``
anchors, longest-match-wins precedence (Allow wins ties), and Sitemap
directives (which the reference re-queues, src/crawler.ts:1311-1317).

Parse errors disallow (``urlIsAllowed`` src/crawler.ts:683-701: an
errored entry yields allowed=False).

``robots_keys`` builds the ``host:port`` key of the rules of each row
of a column batch, and ``robots_allowed`` matches whole columns: the
one matcher of the candidate filter and of the batch task's check of
its queued rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .urlnorm import Uri, process_url


def _rule_regex(pattern: str) -> re.Pattern:
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    parts = [re.escape(p) for p in pattern.split("*")]
    body = ".*".join(parts)
    return re.compile("^" + body + ("$" if anchored else ""))


@dataclass
class RobotsRules:
    url: str                       # the robots.txt URL these rules came from
    sitemaps: list[str] = field(default_factory=list)
    error: bool = False
    # [(is_allow, pattern_len, regex)]
    _rules: list[tuple[bool, int, re.Pattern]] = field(default_factory=list)

    @classmethod
    def parse(cls, robots_url: str, text: str, user_agent: str = "*") -> "RobotsRules":
        rules = cls(url=robots_url)
        ua_token = user_agent.split("/")[0].lower().strip()
        groups: list[tuple[list[str], list[tuple[bool, str]]]] = []
        cur_agents: list[str] = []
        cur_rules: list[tuple[bool, str]] = []
        last_was_agent = False
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or ":" not in line:
                continue
            key, _, val = line.partition(":")
            key = key.strip().lower()
            val = val.strip()
            if key == "user-agent":
                if not last_was_agent and cur_agents:
                    groups.append((cur_agents, cur_rules))
                    cur_agents, cur_rules = [], []
                if val:
                    # a bare "User-agent:" is malformed; recording "" would
                    # substring-match EVERY crawler and outrank "*"
                    cur_agents.append(val.lower())
                last_was_agent = True
            elif key in ("allow", "disallow"):
                last_was_agent = False
                if cur_agents:
                    cur_rules.append((key == "allow", val))
            elif key == "sitemap":
                last_was_agent = False
                rules.sitemaps.append(val)
            # any other directive (crawl-delay, host...) is IGNORED as if
            # absent (RFC 9309 §2.2.4) — so "UA: a / crawl-delay / UA: b"
            # still forms ONE group with both agents, matching the RFC
            # (some parsers instead end the agent list at any directive)
        if cur_agents:
            groups.append((cur_agents, cur_rules))

        # pick the most specific matching group, '*' as fallback
        best: list[tuple[bool, str]] | None = None
        best_len = -1
        for agents, rl in groups:
            for a in agents:
                if a == "*":
                    if best_len < 0:
                        best = rl
                elif a in ua_token or ua_token in a:
                    if len(a) > best_len:
                        best, best_len = rl, len(a)
        for is_allow, pattern in best or []:
            if not pattern:
                continue  # "Disallow:" empty == allow all
            rules._rules.append((is_allow, len(pattern), _rule_regex(pattern)))
        return rules

    @classmethod
    def error_rules(cls, robots_url: str) -> "RobotsRules":
        return cls(url=robots_url, error=True)

    def is_allowed(self, url: str) -> bool:
        if self.error:
            return False  # parse/fetch error => disallow (crawler.ts:694-697)
        u = Uri.parse(url)
        path = (u.path or "/") + (("?" + u.query) if u.query else "")
        return self.is_allowed_path(path)

    def is_allowed_path(self, pathq: str) -> bool:
        """Same check on an already-extracted path(+query) — avoids a URL
        re-parse in the per-candidate hot loop."""
        if self.error:
            return False
        if not self._rules:
            return True
        verdict = True
        best_len = -1
        for is_allow, plen, rx in self._rules:
            if rx.match(pathq or "/"):
                if plen > best_len or (plen == best_len and is_allow and not verdict):
                    verdict, best_len = is_allow, plen
        return verdict


def host_key(url: str) -> str:
    """Per-host key used for the robots cache / politeness partitioning."""
    u = Uri.parse(url)
    return f"{u.hostname or ''}:{u.port or ''}"


def robots_keys(host: pa.Array, port: pa.Array) -> pa.Array:
    """Each row's robots key, ``host_key``'s ``host:port`` from the host
    and port columns: a null host is "", a null or 0 port is no port."""
    port_s = pc.if_else(pc.fill_null(pc.not_equal(port, 0), False),
                        pc.cast(port, pa.string()), "")
    return pc.binary_join_element_wise(pc.fill_null(host, ""), port_s, ":")


def robots_allowed(host: pa.Array, port: pa.Array, path: pa.Array,
                   robots: dict, ids: "np.ndarray | None" = None
                   ) -> "pa.Array | None":
    """urlIsAllowed (crawler.ts:683-701) per row: the rules of the row's
    ``robots_keys`` key in ``robots`` matched against its ``path``
    (path + query), allowed where the key has no rules.  None when no
    row's key carries rules or an error (the common all-allowed case).
    Python runs per distinct key, and the path match only on rows whose
    key carries rules; with ``ids`` (one int per row that fixes its
    host, port and path) once per distinct id."""
    if not robots:
        return None
    enc = pc.dictionary_encode(robots_keys(host, port))
    rules = [robots.get(k) for k in enc.dictionary.to_pylist()]
    rules = [r if r is not None and (r._rules or r.error) else None
             for r in rules]
    if all(r is None for r in rules):
        return None
    hk = enc.indices.to_numpy()
    active = np.flatnonzero(np.array([r is not None for r in rules])[hk])
    keys = (ids[active] if ids is not None else active).tolist()
    ok = np.ones(len(hk), dtype=bool)
    verdicts: dict[int, bool] = {}
    for i, key, p in zip(active.tolist(), keys,
                         path.take(active).to_pylist()):
        v = verdicts.get(key)
        if v is None:
            v = verdicts[key] = rules[hk[i]].is_allowed_path(p)
        ok[i] = v
    return pa.array(ok)


def _fetch_and_parse(web, hk: str, user_agent: str,
                     scheme: "str | None" = None) -> tuple[RobotsRules, list[str], str]:
    """One robots.txt fetch+parse for host key ``hk`` (redirect-following;
    a redirect off the host => error entry).  Returns (rules, sitemaps,
    error_msg).  ``scheme`` comes from the frontier rows' protocol
    column; unset, port 443 implies https (plaintext HTTP against a TLS
    port would fail and silently yield allow-all rules)."""
    host, _, port = hk.partition(":")
    portpart = f":{port}" if port else ""
    if scheme is None:
        scheme = "https" if port == "443" else "http"
    rurl = f"{scheme}://{host}{portpart}/robots.txt"
    resp = web.get(rurl)
    hops = 0
    while (resp is not None and 300 <= resp.code < 400
           and resp.headers.get("Location") and hops < 5):
        loc = resp.headers["Location"]
        target = process_url(loc, rurl)
        if target is None or host_key(target.url) != hk:
            return (RobotsRules(url=rurl), [],
                    f"Robots.txt for {hk} redirected to a disallowed domain: {loc}")
        rurl = target.url
        resp = web.get(rurl)
        hops += 1
    if resp is None or resp.code != 200:
        return RobotsRules(url=rurl), [], ""
    try:
        rules = RobotsRules.parse(rurl, resp.body.decode("utf-8", errors="replace"),
                                  user_agent)
        return rules, list(rules.sitemaps), ""
    except Exception:
        return RobotsRules.error_rules(rurl), [], "robots parse error"
