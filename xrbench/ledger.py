"""The outside-in layer ledger: timing wrappers around public layer calls.

:class:`Ledger` installs wrappers at run time around the public functions
of each layer (it edits no file of the program) and removes them again on
exit.  Every wrapped call becomes a *frame* on a per-thread stack; frames
of one request share its request id, also across the server's thread hop
(the worker's ``Session.query`` is matched to the caller's
``Server.query`` through the ``QueryProfile`` both carry).  A frame's self
time is its duration minus the time of the frames it encloses.

Coarse frames (requests, server, session, planning, joins, database
writes, commits) are also kept as spans — name, start, end, parent span
and request id — and written out by :meth:`Ledger.write_spans`.  The hot
leaf calls (page fetches, decodes, disk reads, XR-tree cursor descents)
are only summed per request, so a traced run stays within memory.
"""

import itertools
import json
import threading
import time

from repro.core.database import XmlDatabase
from repro.core.session import Session
from repro.indexes.xrtree.tree import XRTree
from repro.query import engine as engine_module
from repro.query.engine import PathQueryEngine
from repro.server import Server
from repro.storage.buffer import BufferPool
from repro.storage.disk import FileDisk, SimulatedDisk
from repro.storage.indexmanager import IndexManager
from repro.storage.pages import Page

#: Frames kept as spans; every other frame is summed per request only.
SPAN_NAMES = frozenset((
    "request.read", "request.write", "server.query", "session.open",
    "session.query", "query.evaluate", "query.parse", "query.build",
    "joins.kernel", "database.add", "database.remove", "database.flush",
    "disk.sync",
))

_XRTREE_PROBES = ("find_ancestors", "find_descendants", "seek",
                  "seek_after", "first")


class _Frame:
    __slots__ = ("name", "start", "child", "rid", "span")

    def __init__(self, name, start, rid, span):
        self.name = name
        self.start = start
        self.child = 0.0
        self.rid = rid
        self.span = span


class _Thread(threading.local):
    def __init__(self):
        self.stack = []
        self.totals = None  # (rid, name) -> [calls, seconds, self seconds]
        self.counts = None  # (rid, counter) -> value
        self.pending = []   # request-less frames awaiting adoption
        self.orphan_spans = []


class Ledger:
    """Per-request, per-layer totals of one traced phase."""

    def __init__(self):
        self._local = _Thread()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads = []     # (totals, counts) of every thread seen
        self._links = {}       # id(profile) -> (rid, server frame)
        self._saved = []
        self.kinds = {}        # rid -> "read" | "write"
        self.touched = {}      # rid -> distinct page ids fetched
        self.spans = []

    # -- recording ------------------------------------------------------------

    def _state(self):
        local = self._local
        if local.totals is None:
            local.totals = {}
            local.counts = {}
            with self._lock:
                self._threads.append((local.totals, local.counts))
        return local

    def _enter(self, name, rid=None, parent_frame=None):
        local = self._state()
        stack = local.stack
        parent = stack[-1] if stack else parent_frame
        if rid is None and parent is not None:
            rid = parent.rid
        span = None
        if name in SPAN_NAMES:
            span = [next(self._ids), parent.span[0]
                    if parent is not None and parent.span else None,
                    rid, name, 0.0, 0.0]
        frame = _Frame(name, time.perf_counter(), rid, span)
        stack.append(frame)
        return local, frame

    def _exit(self, local, frame, parent_frame=None):
        end = time.perf_counter()
        stack = local.stack
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else parent_frame
        if parent is not None:
            parent.child += duration
        key = (frame.rid, frame.name)
        total = local.totals.get(key)
        if total is None:
            total = local.totals[key] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame.child
        if frame.span is not None:
            frame.span[4] = frame.start
            frame.span[5] = end
            self.spans.append(frame.span)
            if frame.rid is None:
                local.orphan_spans.append(frame.span)
        if frame.rid is None and parent is None:
            local.pending.append((frame, duration))

    def count(self, local, rid, counter, amount):
        key = (rid, counter)
        local.counts[key] = local.counts.get(key, 0) + amount

    def request(self, kind):
        """Context manager for one read or write the benchmark makes."""
        return _Request(self, kind)

    def _adopt(self, local, rid, server_frame):
        """Give the request-less frames finished on this thread (a server
        worker's session refresh) to the request it is about to serve."""
        for frame, duration in local.pending:
            server_frame.child += duration
            if frame.span is not None:
                frame.span[1] = server_frame.span[0]
        for span in local.orphan_spans:
            span[2] = rid
        for key in [k for k in local.totals if k[0] is None]:
            merged = local.totals.setdefault((rid, key[1]), [0, 0.0, 0.0])
            for index, value in enumerate(local.totals.pop(key)):
                merged[index] += value
        for key in [k for k in local.counts if k[0] is None]:
            self.count(local, rid, key[1], local.counts.pop(key))
        local.pending = []
        local.orphan_spans = []

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._uninstall()

    def _uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def _timed(self, name):
        ledger = self

        def make(original):
            def wrapper(*args, **kwargs):
                local, frame = ledger._enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    ledger._exit(local, frame)
            return wrapper
        return make

    def _install(self):
        timed = self._timed
        # The engine calls these through its own module globals.
        for attr, name in (("parse_path", "query.parse"),
                           ("build_xr_tree", "query.build"),
                           ("build_element_list", "query.build"),
                           ("xr_stack_join", "joins.kernel"),
                           ("stack_tree_join", "joins.kernel")):
            self._patch(engine_module, attr, timed(name))
        self._patch(PathQueryEngine, "evaluate", timed("query.evaluate"))
        self._patch(XmlDatabase, "session", timed("session.open"))
        self._patch(XmlDatabase, "add_document", self._wrap_add)
        self._patch(XmlDatabase, "remove_document",
                    timed("database.remove"))
        self._patch(XmlDatabase, "flush", timed("database.flush"))
        self._patch(Server, "query", self._wrap_server_query)
        self._patch(Session, "query", self._wrap_session_query)
        for attr in _XRTREE_PROBES:
            self._patch(XRTree, attr, self._wrap_probe)
        self._patch(XRTree, "insert", timed("xrtree.insert"))
        self._patch(XRTree, "delete", timed("xrtree.delete"))
        self._patch(BufferPool, "fetch", self._wrap_fetch)
        self._patch(BufferPool, "new_page", self._wrap_new_page)
        self._patch(Page, "decode", timed("pages.decode"))
        self._patch(SimulatedDisk, "read", timed("disk.read"))
        self._patch(FileDisk, "sync", self._wrap_sync)
        self._patch(IndexManager, "get_xrtree", self._wrap_index_get)

    # -- wrappers that also read a layer's own counters -----------------------

    def _wrap_add(self, original):
        ledger = self

        def add_document(db, source, name=None):
            local, frame = ledger._enter("database.add")
            try:
                return original(db, source, name)
            finally:
                ledger._exit(local, frame)
                if isinstance(source, str):
                    ledger.count(local, frame.rid, "xml_bytes",
                                 len(source.encode("utf-8")))
        return add_document

    def _wrap_server_query(self, original):
        ledger = self

        def query(server, path, snapshot=True, runtime=None, profile=None,
                  timeout=None):
            local, frame = ledger._enter("server.query")
            refreshes = server.stats.session_refreshes
            if profile is not None:
                ledger._links[id(profile)] = (frame.rid, frame)
            try:
                return original(server, path, snapshot, runtime, profile,
                                timeout)
            finally:
                ledger._links.pop(id(profile), None)
                ledger.count(local, frame.rid, "session_refreshes",
                             server.stats.session_refreshes - refreshes)
                ledger._exit(local, frame)
        return query

    def _wrap_session_query(self, original):
        ledger = self

        def query(session, path, runtime=None, profile=None):
            link = (ledger._links.get(id(profile))
                    if profile is not None else None)
            if link is not None and not ledger._local.stack:
                rid, server_frame = link
                local = ledger._state()
                ledger._adopt(local, rid, server_frame)
                local, frame = ledger._enter("session.query", rid,
                                             server_frame)
            else:
                server_frame = None
                local, frame = ledger._enter("session.query")
            scratch = session.scratch_pages
            try:
                return original(session, path, runtime, profile)
            finally:
                ledger.count(local, frame.rid, "scratch_pages",
                             session.scratch_pages - scratch)
                ledger._exit(local, frame, server_frame)
        return query

    def _wrap_probe(self, original):
        ledger = self

        def probe(tree, *args, **kwargs):
            local, frame = ledger._enter("xrtree.probe")
            stack = local.stack
            if len(stack) < 2 or stack[-2].name != "xrtree.probe":
                ledger.count(local, frame.rid, "descents", 1)
            try:
                return original(tree, *args, **kwargs)
            finally:
                ledger._exit(local, frame)
        return probe

    def _wrap_fetch(self, original):
        ledger = self

        def fetch(pool, page_id):
            local, frame = ledger._enter("buffer.fetch")
            stats = pool.stats
            misses, evictions = stats.misses, stats.evictions
            waits = pool.latch_waits
            try:
                return original(pool, page_id)
            finally:
                ledger._exit(local, frame)
                rid = frame.rid
                ledger.count(local, rid, "misses", stats.misses - misses)
                ledger.count(local, rid, "evictions",
                             stats.evictions - evictions)
                ledger.count(local, rid, "latch_waits",
                             pool.latch_waits - waits)
                touched = ledger.touched.get(rid)
                if touched is None:
                    touched = ledger.touched.setdefault(rid, set())
                touched.add((id(pool), page_id))
        return fetch

    def _wrap_new_page(self, original):
        ledger = self

        def new_page(pool, page):
            local, frame = ledger._enter("buffer.new_page")
            evictions = pool.stats.evictions
            try:
                return original(pool, page)
            finally:
                ledger._exit(local, frame)
                ledger.count(local, frame.rid, "evictions",
                             pool.stats.evictions - evictions)
        return new_page

    def _wrap_sync(self, original):
        ledger = self

        def sync(disk):
            local, frame = ledger._enter("disk.sync")
            written = disk.durability_stats.physical_page_writes
            try:
                return original(disk)
            finally:
                ledger._exit(local, frame)
                ledger.count(
                    local, frame.rid, "bytes_written",
                    (disk.durability_stats.physical_page_writes - written)
                    * disk.page_size)
        return sync

    def _wrap_index_get(self, original):
        ledger = self

        def get_xrtree(manager, name):
            local, frame = ledger._enter("indexmanager.get")
            stats = manager.stats
            hits, loads = stats.hits, stats.loads
            try:
                return original(manager, name)
            finally:
                ledger._exit(local, frame)
                ledger.count(local, frame.rid, "index_hits",
                             stats.hits - hits)
                ledger.count(local, frame.rid, "index_loads",
                             stats.loads - loads)
        return get_xrtree

    # -- results --------------------------------------------------------------

    def totals(self, kind):
        """``({name: [calls, seconds, self seconds]}, {counter: value},
        requests)`` summed over every request of ``kind``."""
        rids = {rid for rid, k in self.kinds.items() if k == kind}
        names, counts = {}, {}
        for thread_totals, thread_counts in self._threads:
            for (rid, name), total in thread_totals.items():
                if rid in rids:
                    merged = names.setdefault(name, [0, 0.0, 0.0])
                    for index in range(3):
                        merged[index] += total[index]
            for (rid, counter), value in thread_counts.items():
                if rid in rids:
                    counts[counter] = counts.get(counter, 0) + value
        counts["pages_touched"] = sum(len(self.touched.get(rid, ()))
                                      for rid in rids)
        return names, counts, len(rids)

    def request_count(self, rid, counter):
        """One counter of one request, summed over threads."""
        return sum(counts.get((rid, counter), 0)
                   for _, counts in self._threads)

    def write_spans(self, path):
        """Write every kept span as one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, parent, rid, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "request": rid,
                    "name": name, "start": start, "end": end}) + "\n")


class _Request:
    """The benchmark's own root frame around one read or write."""

    def __init__(self, ledger, kind):
        self._ledger = ledger
        self._kind = kind

    def __enter__(self):
        ledger = self._ledger
        rid = self.rid = next(ledger._ids)
        ledger.kinds[rid] = self._kind
        self._local, self._frame = ledger._enter("request." + self._kind,
                                                 rid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._ledger._exit(self._local, self._frame)
        return False
