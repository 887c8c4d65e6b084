"""The three workloads, their set-up, the answer checks and the metrics.

* ``dense-paths`` — one client, one long-lived snapshot ``Session``, a
  seeded rotation of high-match Department joins; the corpus is several
  times the buffer pool.
* ``sparse-paths`` — the same set-up with selective Auction joins whose
  pages stay inside the pool.
* ``churn-serve`` — ``Server(workers=2)``: one reader thread cycles the
  selective joins plus ``//department/employee`` through ``Server.query``
  while one writer thread alternates an add and a remove commit.

End-to-end metrics come from untraced phases only; a traced run
(``trace=True``) first measures a short untraced phase, then repeats the
workload under the :class:`~ledger.Ledger` and reports the per-layer
metrics instead.
"""

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time

from corpus import CHURN_QUERIES, DENSE_QUERIES, SPARSE_ROTATION, Corpus
from ledger import Ledger

from repro.core.config import DatabaseConfig
from repro.core.database import XmlDatabase
from repro.obs.profile import QueryProfile
from repro.server import Server
from repro.storage.timemodel import DiskTimeModel

#: Each workload's rotation (a class may appear more than once per cycle).
WORKLOADS = {
    "dense-paths": DENSE_QUERIES,
    "sparse-paths": SPARSE_ROTATION,
    "churn-serve": CHURN_QUERIES,
}

#: End-to-end metrics of every workload (untraced runs) and their units.
END_TO_END = {
    "setup_s": "s",
    "reads_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "modelled_ms_per_read": "ms",
    "peak_rss_mb": "MiB",
}

#: Printed in the report but not in the result line: the write metrics
#: exist only where a writer runs, and a seed's corpus moves their cost by
#: more than any bound could absorb (see README.md).
REPORTED_ONLY = {
    "writes_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
}

#: Per-layer metrics (traced runs) and their units.  Counts and times are
#: per read unless the name is a write-path one (per write, or per element
#: for the XR-tree updates).
PER_LAYER = {
    "server.wait_ms": "ms",
    "server.session_refreshes": "count",
    "session.open_ms": "ms",
    "session.opens": "count",
    "session.scratch_pages": "count",
    "query.parse_ms": "ms",
    "query.engine_self_ms": "ms",
    "query.build_ms": "ms",
    "joins.kernel_ms": "ms",
    "joins.elements_scanned": "count",
    "joins.pairs": "count",
    "joins.pairs_per_scanned": "ratio",
    "joins.skips": "count",
    "xrtree.descents": "count",
    "xrtree.probe_ms": "ms",
    "xrtree.stab_pages": "count",
    "xrtree.insert_ms": "ms",
    "xrtree.delete_ms": "ms",
    "buffer.requests": "count",
    "buffer.misses": "count",
    "buffer.hit_ratio": "ratio",
    "buffer.requests_per_miss": "ratio",
    "buffer.evictions": "count",
    "buffer.latch_waits": "count",
    "buffer.fetch_ms": "ms",
    "buffer.pages_touched": "count",
    "pages.decodes": "count",
    "pages.decode_ms": "ms",
    "indexmanager.loads": "count",
    "indexmanager.hit_ratio": "ratio",
    "database.add_ms": "ms",
    "database.remove_ms": "ms",
    "database.flush_ms": "ms",
    "disk.reads": "count",
    "disk.read_ms": "ms",
    "disk.syncs": "count",
    "disk.sync_ms": "ms",
    "disk.write_amp": "ratio",
    "ledger.unattributed_frac": "ratio",
    "ledger.traced_reads_ratio": "ratio",
}

UNTRACED_SHARE = 1 / 3  # untraced part of a traced run's read time
SERVER_WORKERS = 2
TIMEOUT_S = 60.0
_MODEL = DiskTimeModel()


class BenchmarkFailure(Exception):
    """The program gave an answer or a count the benchmark cannot accept."""


class _Read:
    __slots__ = ("path", "slot", "seconds", "profile", "rid")

    def __init__(self, path, slot, seconds, profile, rid=None):
        self.path = path
        self.slot = slot
        self.seconds = seconds
        self.profile = profile
        self.rid = rid

    def counters(self):
        p = self.profile
        return (p.elements_scanned, p.page_requests, p.page_misses)


class _Phase:
    """Samples of one measured phase."""

    def __init__(self):
        self.reads = []
        self.read_seconds = 0.0
        self.writes = []  # (kind, seconds)
        self.write_seconds = 0.0
        self.failed_reads = 0
        self.failed_writes = 0
        self.errors = []

    @property
    def attempted(self):
        return len(self.reads) + len(self.writes) + self.failed

    @property
    def failed(self):
        return self.failed_reads + self.failed_writes

    def fail(self, message, write=False):
        # Reader and writer threads each own one counter.
        if write:
            self.failed_writes += 1
        else:
            self.failed_reads += 1
        if len(self.errors) < 10:
            self.errors.append(message)


class _Setup:
    """One ingested corpus with its open read surface."""

    def __init__(self, workload, seed, sizing, directory, index):
        started = time.perf_counter()
        self.corpus = Corpus(seed, sizing)
        self.path = os.path.join(directory, "corpus-%d.db" % index)
        self.db = XmlDatabase.create(self.path, config=DatabaseConfig(
            page_size=sizing.page_size, buffer_pages=sizing.pool_pages))
        for document in self.corpus.documents:
            self.db.add_document(document)
        self.db.flush()
        self.rotation = self.corpus.rotation(WORKLOADS[workload])
        self.server = self.session = None
        try:
            if workload == "churn-serve":
                self.server = Server(self.db,
                                     workers=SERVER_WORKERS).start()
            else:
                self.session = self.db.session()
            # Two warm cycles: the first also fills the engine's
            # element-set caches, the second leaves the pool as every
            # later cycle does.
            self.turn = 0  # rotation position, kept across phases
            self.warm = [self.read() for _ in range(2 * len(self.rotation))]
        except BaseException:
            self.close()
            raise
        self.seconds = time.perf_counter() - started
        self.corpus_pages = os.path.getsize(self.path) // sizing.page_size

    def read(self, ledger=None):
        """The rotation's next read, through the workload's public
        surface."""
        slot = self.turn % len(self.rotation)
        self.turn += 1
        path = self.rotation[slot]
        profile = QueryProfile()
        rid = None
        started = time.perf_counter()
        if ledger is None:
            result = self._query(path, profile)
        else:
            with ledger.request("read") as request:
                result = self._query(path, profile)
            rid = request.rid
        seconds = time.perf_counter() - started
        return _Read(path, slot, seconds, profile, rid), len(result)

    def _query(self, path, profile):
        if self.server is not None:
            return self.server.query(path, profile=profile,
                                     timeout=TIMEOUT_S)
        return self.session.query(path, profile=profile)

    def close(self):
        if self.server is not None:
            self.server.stop()
        if self.session is not None:
            self.session.close()
        self.db.close()


class Run:
    """One invocation: ``workload`` at ``seed`` for ``seconds``."""

    def __init__(self, workload, seed, seconds, trace, sizing, root):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizing = sizing
        self.root = root
        self.report = []

    # -- running --------------------------------------------------------------

    def execute(self):
        """Returns ``(result dict, report lines)``."""
        directory = os.path.join(self.root, ".xrbench_work")
        os.makedirs(directory, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="run-", dir=directory)
        try:
            return self._execute(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _execute(self, directory):
        setups = []
        warm = []
        setup = None
        try:
            for index in range(self.sizing.setups):
                if setup is not None:
                    setup.close()
                    setup = None
                gc.collect()  # the last set-up's garbage is not this one's
                setup = _Setup(self.workload, self.seed, self.sizing,
                               directory, index)
                setups.append((setup.seconds, [r.counters()
                                               for r, _ in setup.warm]))
                warm += setup.warm
            expected = setup.corpus.expected(WORKLOADS[self.workload])
            check = _Checker(self.workload, setup, expected)
            for read, rows in warm:
                check.read(read, rows, None)
            if check.phase_errors:
                raise BenchmarkFailure(check.phase_errors[0])
            self._check_setups_repeat(setups)
            self.setup_median = statistics.median(s for s, _ in setups)
            if self.trace:
                result = self._traced(setup, check)
            else:
                result = self._untraced(setup, check)
            self._final_check(setup, expected)
        finally:
            if setup is not None:
                setup.close()
        self._header(setup, len(setups))
        return result, self.report

    def _untraced(self, setup, check):
        phase = self._measure(setup, check, self.seconds, None)
        check.repeatable(phase.reads, self.report)
        self._report_phase("untraced", phase)
        metrics = self._end_to_end(phase)
        return self._result(phase, metrics, check)

    def _traced(self, setup, check):
        untraced = self._measure(setup, check,
                                 self.seconds * UNTRACED_SHARE, None)
        ledger = Ledger()
        with ledger:
            traced = self._measure(setup, check,
                                   self.seconds * (1 - UNTRACED_SHARE),
                                   ledger)
        check.repeatable(untraced.reads + traced.reads, self.report)
        check.repeatable_descents(traced.reads, ledger, self.report)
        spans_dir = os.path.join(self.root, ".xrbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "spans-%s-seed%d.jsonl"
                             % (self.workload, self.seed))
        ledger.write_spans(spans)
        metrics = _per_layer(ledger, traced, untraced)
        self._report_phase("untraced", untraced)
        self._report_phase("traced", traced)
        self.report.append("spans: %d written to %s"
                           % (len(ledger.spans), os.path.relpath(
                               spans, self.root)))
        self._report_ledger(ledger, traced)
        combined = _Phase()
        for phase in (untraced, traced):
            combined.reads += phase.reads
            combined.writes += phase.writes
            combined.failed_reads += phase.failed
            combined.errors += phase.errors
        return self._result(combined, metrics, check)

    # -- phases ---------------------------------------------------------------

    def _measure(self, setup, check, seconds, ledger):
        """The workload's reads (and churn-serve's writes) for ``seconds``."""
        phase = _Phase()
        gc.collect()
        if self.workload == "churn-serve":
            self._concurrent(setup, check, seconds, ledger, phase)
        else:
            self._read_loop(setup, check, seconds, ledger, phase)
        return phase

    def _read_loop(self, setup, check, seconds, ledger, phase):
        started = time.perf_counter()
        deadline = started + seconds
        while True:
            try:
                read, rows = setup.read(ledger)
            except Exception as exc:  # counted, reported, run goes on
                phase.fail("read: %r" % (exc,))
            else:
                if check.read(read, rows, phase):
                    phase.reads.append(read)
            now = time.perf_counter()
            if now >= deadline:
                break
        phase.read_seconds += now - started

    def _concurrent(self, setup, check, seconds, ledger, phase):
        writer = _Writer(setup, check, ledger, phase)
        stop = threading.Event()
        write_thread = threading.Thread(
            target=writer.run, args=(stop,), name="xrbench-writer")
        read_thread = threading.Thread(
            target=self._read_loop,
            args=(setup, check, seconds, ledger, phase),
            name="xrbench-reader")
        write_thread.start()
        read_thread.start()
        read_thread.join(seconds + 3 * TIMEOUT_S)
        stop.set()
        write_thread.join(3 * TIMEOUT_S)
        if read_thread.is_alive() or write_thread.is_alive():
            raise BenchmarkFailure("a client thread did not finish")

    def _final_check(self, setup, expected):
        """After the writer's pairs the corpus is back to its base state."""
        with setup.db.session() as session:
            for path, rows in expected.items():
                got = len(session.query(path))
                if got != rows:
                    raise BenchmarkFailure(
                        "final %s: %d rows, expected %d" % (path, got, rows))

    # -- metrics --------------------------------------------------------------

    def _end_to_end(self, phase):
        if not phase.reads:
            raise BenchmarkFailure("the phase completed no reads")
        latencies = [r.seconds * 1e3 for r in phase.reads]
        modelled = [_MODEL.elapsed_seconds(
            r.profile.page_misses, 0, r.profile.elements_scanned) * 1e3
            for r in phase.reads]
        metrics = {
            "setup_s": self.setup_median,
            "reads_per_s": len(phase.reads) / phase.read_seconds,
            "read_p50_ms": percentile(latencies, 0.5),
            "read_p90_ms": percentile(latencies, 0.9),
            "modelled_ms_per_read": statistics.fmean(modelled),
            "peak_rss_mb": peak_rss_mb(),
        }
        samples = dict.fromkeys(metrics, len(latencies))
        samples["setup_s"] = self.sizing.setups
        samples["peak_rss_mb"] = 1
        if phase.writes:
            commits = [seconds * 1e3 for _, seconds in phase.writes]
            metrics.update({
                "writes_per_s": len(commits) / phase.write_seconds,
                "write_p50_ms": percentile(commits, 0.5),
                "write_p90_ms": percentile(commits, 0.9),
            })
            samples.update(dict.fromkeys(
                ("writes_per_s", "write_p50_ms", "write_p90_ms"),
                len(commits)))
        self.report.append("end-to-end metrics (value unit, samples):")
        for name, value in metrics.items():
            unit = END_TO_END.get(name) or REPORTED_ONLY[name]
            self.report.append("  %-22s %14.4f %-5s n=%d%s" % (
                name, value, unit, samples[name],
                "" if name in END_TO_END else "  (reported, not gated)"))
        return metrics

    def _result(self, phase, metrics, check):
        failed = phase.failed + check.nondeterministic
        self.report.append("operations: %d attempted, %d failed, "
                           "failed_frac %.6f ratio (errors, rejections, "
                           "timeouts, wrong answers, unrepeated counters)"
                           % (phase.attempted, failed,
                              failed / max(phase.attempted, 1)))
        for error in phase.errors:
            self.report.append("  error: %s" % error)
        units = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": failed == 0,
            "attempted": phase.attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }

    # -- reporting ------------------------------------------------------------

    def _check_setups_repeat(self, setups):
        first = setups[0][1]
        for _, counters in setups[1:]:
            if counters != first and self.workload != "churn-serve":
                raise BenchmarkFailure(
                    "warm-up counters differ between identical set-ups: "
                    "%r != %r" % (counters, first))

    def _header(self, setup, setups):
        s = self.sizing
        lines = [
            "xrbench %s seed=%d seconds=%s trace=%d"
            % (self.workload, self.seed, self.seconds, self.trace),
            "environment: nproc=%d python=%s" % (
                os.cpu_count() or 0, sys.version.split()[0]),
            "storage: page_size=%d B, pool=%d pages, flush policy: "
            "durability=journal, one fsync'd commit per flush"
            % (s.page_size, s.pool_pages),
            "corpus: %d elements (%d+%d+%d Department/Auction/Conference "
            "documents), %d pages on disk = %.1fx the pool"
            % (setup.corpus.elements, s.department_docs, s.auction_docs,
               s.conference_docs, setup.corpus_pages,
               setup.corpus_pages / s.pool_pages),
            "rotation: %s" % " -> ".join(setup.rotation),
            "setup: median %.3f s over %d set-ups" % (self.setup_median,
                                                     setups),
        ]
        self.report[:0] = lines

    def _report_phase(self, label, phase):
        latencies = [r.seconds * 1e3 for r in phase.reads]
        commits = [seconds * 1e3 for _, seconds in phase.writes]
        self.report.append(
            "%s reads: n=%d in %.2f s; p50 and p90 over n=%d samples"
            % (label, len(latencies), phase.read_seconds, len(latencies)))
        by_path = {}
        for read in phase.reads:
            by_path.setdefault(read.path, []).append(read)
        for path, reads in sorted(by_path.items()):
            times = [r.seconds * 1e3 for r in reads]
            p = reads[-1].profile
            self.report.append(
                "  %-26s n=%-4d p50 %8.3f ms  scanned %d requests %d "
                "misses %d rows %d"
                % (path, len(times), percentile(times, 0.5),
                   p.elements_scanned, p.page_requests, p.page_misses,
                   p.rows))
        if not commits:
            return
        self.report.append("%s writes: n=%d in %.2f s"
                           % (label, len(commits), phase.write_seconds))
        for kind in ("add", "remove"):
            times = [s * 1e3 for k, s in phase.writes if k == kind]
            self.report.append("  %-6s commits n=%-4d p50 %8.3f ms"
                               % (kind, len(times), percentile(times, 0.5)))

    def _report_ledger(self, ledger, phase):
        for kind in ("read", "write"):
            names, _, requests = ledger.totals(kind)
            if not requests:
                continue
            self.report.append("ledger per %s (n=%d): layer  calls  "
                               "inclusive_ms  self_ms" % (kind, requests))
            for name, (calls, total, own) in sorted(names.items()):
                self.report.append("  %-22s %10.2f %12.4f %10.4f"
                                   % (name, calls / requests,
                                      total * 1e3 / requests,
                                      own * 1e3 / requests))
        touched = [ledger.touched.get(r.rid, ()) for r in phase.reads]
        cycle = len(WORKLOADS[self.workload])
        working = set().union(*touched[:cycle]) if touched else set()
        self.report.append(
            "pages touched per read: mean %.1f, max %d; one rotation cycle "
            "touches %d distinct pages (pool %d)"
            % (statistics.fmean(len(t) for t in touched) if touched else 0,
               max((len(t) for t in touched), default=0), len(working),
               self.sizing.pool_pages))


class _Checker:
    """Answer checks and the determinism self-check."""

    def __init__(self, workload, setup, expected):
        self.workload = workload
        self.phase_errors = []
        self.nondeterministic = 0
        self._valid = {path: {rows} for path, rows in expected.items()}
        self._lock = threading.Lock()
        self._write_counts = [
            setup.corpus.expected(list(expected), extra=[document])
            for _, document in setup.corpus.write_documents]

    def read(self, read, rows, phase):
        """True when ``rows`` is the count of some committed state."""
        with self._lock:
            ok = rows in self._valid[read.path]
        if not ok:
            message = "%s returned %d rows; valid %s" % (
                read.path, rows, sorted(self._valid[read.path]))
            if phase is None:
                self.phase_errors.append(message)
            else:
                phase.fail(message)
        return ok

    def announce(self, index):
        """Write document ``index`` is about to commit: its counts become
        valid before the commit can be seen."""
        counts = self._write_counts[index]
        with self._lock:
            for path, rows in counts.items():
                self._valid[path].add(rows)

    def repeatable(self, reads, report):
        """The paper counters must repeat exactly per query class, each
        in its place in the rotation (a class that comes twice per cycle
        meets a different pool each time)."""
        if self.workload == "churn-serve":
            return
        seen = {}
        for read in reads:
            first = seen.setdefault(read.slot, read.counters())
            if read.counters() != first:
                self.nondeterministic += 1
        digest = hashlib.sha256(json.dumps(
            sorted(seen.items())).encode()).hexdigest()[:16]
        report.append("determinism: %s (scanned, requests, misses) per "
                      "class and rotation slot, digest %s"
                      % ("repeat exactly" if not self.nondeterministic
                         else "%d reads DIFFER" % self.nondeterministic,
                         digest))

    def repeatable_descents(self, reads, ledger, report):
        if self.workload == "churn-serve":
            return
        seen = {}
        for read in reads:
            descents = ledger.request_count(read.rid, "descents")
            if seen.setdefault(read.slot, descents) != descents:
                self.nondeterministic += 1
        report.append("determinism: xrtree descents per rotation slot %s"
                      % json.dumps(seen, sort_keys=True))


class _Writer:
    """Alternating add and remove commits that keep the corpus level."""

    def __init__(self, setup, check, ledger, phase):
        self._setup = setup
        self._check = check
        self._ledger = ledger
        self._phase = phase

    def run(self, stop):
        """Commit pairs until ``stop`` is set; the pair in flight is always
        finished, so the corpus ends where it started."""
        db = self._setup.db
        documents = self._setup.corpus.write_documents
        phase = self._phase
        started = time.perf_counter()
        index = 0
        try:
            while True:
                slot = index % len(documents)
                index += 1
                self._check.announce(slot)
                xml = documents[slot][0]
                doc_id = self._commit("add", lambda: db.add_document(xml))
                self._commit("remove", lambda: db.remove_document(doc_id))
                if stop.is_set():
                    break
        except Exception as exc:  # counted, reported; the writer stops
            phase.fail("writer: %r" % (exc,), write=True)
        phase.write_seconds += time.perf_counter() - started

    def _commit(self, kind, operation):
        started = time.perf_counter()
        if self._ledger is None:
            value = operation()
            self._setup.db.flush()
        else:
            with self._ledger.request("write"):
                value = operation()
                self._setup.db.flush()
        self._phase.writes.append((kind, time.perf_counter() - started))
        return value


# -- per-layer metrics --------------------------------------------------------

def _per_layer(ledger, traced, untraced):
    names, counts, reads = ledger.totals("read")
    wnames, wcounts, writes = ledger.totals("write")
    reads = max(reads, 1)
    writes = max(writes, 1)

    def total(table, name, field=1):
        return table.get(name, (0, 0.0, 0.0))[field]

    def per_read_ms(name, field=1):
        return total(names, name, field) * 1e3 / reads

    def per_call_ms(table, name):
        calls = total(table, name, 0)
        return total(table, name) * 1e3 / calls if calls else 0.0

    profiles = [r.profile for r in traced.reads]
    scanned = sum(p.elements_scanned for p in profiles)
    pairs = sum(p.total("pairs") for p in profiles)
    requests = total(names, "buffer.fetch", 0)
    misses = counts.get("misses", 0)
    index_gets = total(names, "indexmanager.get", 0)
    server_wait = 0.0
    if "server.query" in names:
        server_wait = per_read_ms("server.query") - per_read_ms(
            "session.query")
    request_time = total(names, "request.read")
    untraced_rate = len(untraced.reads) / untraced.read_seconds
    traced_rate = len(traced.reads) / traced.read_seconds
    xml_bytes = wcounts.get("xml_bytes", 0)
    n = len(profiles) or 1
    return {
        "server.wait_ms": server_wait,
        "server.session_refreshes": counts.get("session_refreshes", 0)
        / reads,
        "session.open_ms": per_read_ms("session.open"),
        "session.opens": total(names, "session.open", 0) / reads,
        "session.scratch_pages": counts.get("scratch_pages", 0) / reads,
        "query.parse_ms": per_read_ms("query.parse"),
        "query.engine_self_ms": per_read_ms("query.evaluate", 2),
        "query.build_ms": per_read_ms("query.build"),
        "joins.kernel_ms": per_read_ms("joins.kernel"),
        "joins.elements_scanned": scanned / n,
        "joins.pairs": pairs / n,
        "joins.pairs_per_scanned": pairs / scanned if scanned else 0.0,
        "joins.skips": sum(p.total("skip_probes") for p in profiles) / n,
        "xrtree.descents": counts.get("descents", 0) / reads,
        "xrtree.probe_ms": per_read_ms("xrtree.probe"),
        "xrtree.stab_pages": sum(p.stab_pages for p in profiles) / n,
        "xrtree.insert_ms": per_call_ms(wnames, "xrtree.insert"),
        "xrtree.delete_ms": per_call_ms(wnames, "xrtree.delete"),
        "buffer.requests": requests / reads,
        "buffer.misses": misses / reads,
        "buffer.hit_ratio": (requests - misses) / requests
        if requests else 0.0,
        # Misses floored at one per read, so the in-cache workload
        # reports requests per read instead of dividing by zero.
        "buffer.requests_per_miss": requests / max(misses, reads),
        "buffer.evictions": counts.get("evictions", 0) / reads,
        "buffer.latch_waits": counts.get("latch_waits", 0) / reads,
        "buffer.fetch_ms": per_read_ms("buffer.fetch"),
        "buffer.pages_touched": counts.get("pages_touched", 0) / reads,
        "pages.decodes": total(names, "pages.decode", 0) / reads,
        "pages.decode_ms": per_read_ms("pages.decode"),
        "indexmanager.loads": counts.get("index_loads", 0) / reads,
        "indexmanager.hit_ratio": counts.get("index_hits", 0) / index_gets
        if index_gets else 0.0,
        "database.add_ms": per_call_ms(wnames, "database.add"),
        "database.remove_ms": per_call_ms(wnames, "database.remove"),
        "database.flush_ms": per_call_ms(wnames, "database.flush"),
        "disk.reads": total(names, "disk.read", 0) / reads,
        "disk.read_ms": per_read_ms("disk.read"),
        "disk.syncs": total(wnames, "disk.sync", 0) / writes,
        "disk.sync_ms": total(wnames, "disk.sync") * 1e3 / writes,
        "disk.write_amp": wcounts.get("bytes_written", 0) / xml_bytes
        if xml_bytes else 0.0,
        "ledger.unattributed_frac": total(names, "request.read", 2)
        / request_time if request_time else 0.0,
        "ledger.traced_reads_ratio": traced_rate / untraced_rate,
    }


# -- helpers ------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated ``q`` quantile (``q=0.5`` is the median)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb():
    """Peak resident memory of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
