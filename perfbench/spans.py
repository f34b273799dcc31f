"""In-memory span recording around the objects the engine takes from its caller.

The traced run never edits the engine: it hands the engine wrapped versions
of what ``Options``/``ShieldOptions`` already accept (the Env, the KDS, the
crypto provider and the FileCrypto objects it returns) and wraps the
``DB``/``KVClient`` methods the benchmark calls.  Each wrapper opens a span
(name, start, end, parent, bytes, thread) around the delegated call.

A span whose root is a ``db.*`` or ``client.*`` call is foreground; any
other root opened on an engine thread (flush, compaction) is a background
root.  A span's self time is its duration minus the part of it that its
direct children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import namedtuple

from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.keys.kds import KeyDistributionService
from repro.lsm.filecrypto import CryptoProvider
from repro.shield import ShieldOptions

Span = namedtuple("Span", "sid parent name t0 t1 nbytes thread")

#: Fields of a Tally entry: [calls, nanoseconds, bytes].
CALLS, NS, BYTES = 0, 1, 2

FOREGROUND_PREFIXES = ("db.", "client.")


class Recorder:
    """Collects finished spans in a list; nothing is written until the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self) -> tuple[int, int, int]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def end(self, token: tuple[int, int, int], name: str, nbytes: int = 0) -> None:
        t1 = time.perf_counter_ns()
        self._stack().pop()
        sid, parent, t0 = token
        self.spans.append(
            Span(sid, parent, name, t0, t1, nbytes, threading.get_ident())
        )

    def wrap(self, name: str, fn, sized_arg: bool = False):
        """``fn`` inside a span; ``sized_arg`` records len(first arg)."""

        def traced(*args, **kwargs):
            token = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token, name, len(args[0]) if sized_arg else 0)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("sid\tparent\tname\tt0_ns\tt1_ns\tbytes\tthread\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


class TracedMethods:
    """Proxy whose listed methods run inside ``<layer>.<method>`` spans."""

    def __init__(self, target, recorder: Recorder, layer: str, methods):
        self._target = target
        for method in methods:
            setattr(self, method,
                    recorder.wrap(f"{layer}.{method}", getattr(target, method)))

    def __getattr__(self, name):
        return getattr(self._target, name)


def file_kind(path: str) -> str:
    if path.endswith(".log"):
        return "wal"
    if path.endswith(".sst"):
        return "sst"
    return "meta"


class _TracedWritable(WritableFile):
    def __init__(self, inner: WritableFile, recorder: Recorder, kind: str):
        self._inner = inner
        self.append = recorder.wrap(f"env.append.{kind}", inner.append,
                                    sized_arg=True)
        self.sync = recorder.wrap(f"env.sync.{kind}", inner.sync)
        self.close = recorder.wrap(f"env.close.{kind}", inner.close)

    def tell(self) -> int:
        return self._inner.tell()


class _TracedReadable(RandomAccessFile):
    def __init__(self, inner: RandomAccessFile, recorder: Recorder, kind: str):
        self._inner = inner
        self._recorder = recorder
        self._name = f"env.read.{kind}"
        self.close = recorder.wrap(f"env.close.{kind}", inner.close)

    def read(self, offset: int, length: int) -> bytes:
        token = self._recorder.begin()
        data = b""
        try:
            data = self._inner.read(offset, length)
            return data
        finally:
            self._recorder.end(token, self._name, len(data))

    def size(self) -> int:
        return self._inner.size()


class TracedEnv(Env):
    """``Options.env``: every file operation becomes an ``env.*`` span."""

    def __init__(self, inner: Env, recorder: Recorder):
        self._inner = inner
        self._recorder = recorder
        for method in ("delete_file", "rename_file", "file_exists", "list_dir",
                       "file_size", "mkdirs"):
            setattr(self, method,
                    recorder.wrap(f"env.{method}", getattr(inner, method)))

    def new_writable_file(self, path: str) -> WritableFile:
        kind = file_kind(path)
        token = self._recorder.begin()
        try:
            handle = self._inner.new_writable_file(path)
        finally:
            self._recorder.end(token, f"env.open.{kind}")
        return _TracedWritable(handle, self._recorder, kind)

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        kind = file_kind(path)
        token = self._recorder.begin()
        try:
            handle = self._inner.new_random_access_file(path)
        finally:
            self._recorder.end(token, f"env.open.{kind}")
        return _TracedReadable(handle, self._recorder, kind)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedFileCrypto:
    """A FileCrypto whose encrypt/decrypt/seal/open are ``crypto.*`` spans."""

    def __init__(self, inner, recorder: Recorder):
        self._inner = inner
        if inner.is_aead:
            self.seal = recorder.wrap("crypto.encrypt", inner.seal, True)
            self.open = recorder.wrap("crypto.decrypt", inner.open, True)
        else:
            self.encrypt = recorder.wrap("crypto.encrypt", inner.encrypt, True)
            self.decrypt = recorder.wrap("crypto.decrypt", inner.decrypt, True)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedProvider(CryptoProvider):
    """``Options.crypto_provider``: DEK policy calls become ``shield.*`` spans."""

    def __init__(self, inner: CryptoProvider, recorder: Recorder):
        self._inner = inner
        self._recorder = recorder
        self.on_file_deleted = recorder.wrap(
            "shield.on_file_deleted", inner.on_file_deleted
        )

    def _crypto(self, name: str, fn, *args):
        token = self._recorder.begin()
        try:
            crypto = fn(*args)
        finally:
            self._recorder.end(token, name)
        if not crypto.encrypted:
            return crypto
        return TracedFileCrypto(crypto, self._recorder)

    def for_new_file(self, file_kind: int, path: str):
        return self._crypto("shield.for_new_file", self._inner.for_new_file,
                            file_kind, path)

    def for_existing_file(self, envelope, path: str):
        return self._crypto("shield.for_existing_file",
                            self._inner.for_existing_file, envelope, path)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedKDS(KeyDistributionService):
    """The KDS passed to ``ShieldOptions``: every request is a ``keys.*`` span."""

    def __init__(self, inner: KeyDistributionService, recorder: Recorder):
        self._inner = inner
        self.provision = recorder.wrap("keys.provision", inner.provision)
        self.fetch = recorder.wrap("keys.fetch", inner.fetch)
        self.retire = recorder.wrap("keys.retire", inner.retire)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedShieldOptions(ShieldOptions):
    """ShieldOptions whose provider comes back wrapped in a TracedProvider."""

    def __init__(self, recorder: Recorder, **fields):
        super().__init__(**fields)
        self.recorder = recorder

    def build_provider(self):
        return TracedProvider(super().build_provider(), self.recorder)


# ---------------------------------------------------------------------------
# Ledger arithmetic
# ---------------------------------------------------------------------------


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_ns(span: Span, children) -> int:
    """Duration of ``span`` minus the part its children's intervals cover."""
    covered = covered_ns(((c.t0, c.t1) for c in children), span.t0, span.t1)
    return (span.t1 - span.t0) - covered


class Tally:
    """Totals of the spans under foreground and background roots.

    ``fg``/``bg`` map "<root name> <span name>" to [calls, ns, bytes];
    ``fg_self_ns`` is the summed self time of the foreground roots (the DB
    or client calls), ``fg_roots`` their count, and ``coverage`` the share
    of each caller thread's timed interval that its roots cover.
    Foreground roots count when they start in [start, timed_end),
    background roots when they start in [start, end).
    """

    def __init__(self, spans, start_ns: int, timed_end_ns: int, end_ns: int):
        ordered = sorted(spans, key=lambda s: s.sid)
        known = {span.sid for span in ordered}
        children: dict[int, list[Span]] = {}
        for span in ordered:
            if span.parent in known:
                children.setdefault(span.parent, []).append(span)
        self.fg: dict[str, list[int]] = {}
        self.bg: dict[str, list[int]] = {}
        self.fg_self_ns = 0
        self.fg_roots = 0
        per_thread: dict[int, list[tuple[int, int]]] = {}
        root_of: dict[int, Span] = {}
        for span in ordered:
            root = root_of.get(span.parent, span)
            root_of[span.sid] = root
            foreground = root.name.startswith(FOREGROUND_PREFIXES)
            limit = timed_end_ns if foreground else end_ns
            if not start_ns <= root.t0 < limit:
                continue
            if span is root and foreground:
                self.fg_roots += 1
                self.fg_self_ns += self_ns(span, children.get(span.sid, ()))
                per_thread.setdefault(span.thread, []).append((span.t0, span.t1))
            side = self.fg if foreground else self.bg
            entry = side.setdefault(f"{root.name} {span.name}", [0, 0, 0])
            entry[0] += 1
            entry[1] += span.t1 - span.t0
            entry[2] += span.nbytes
        window = timed_end_ns - start_ns
        self.coverage = (
            sum(covered_ns(iv, start_ns, timed_end_ns) for iv in per_thread.values())
            / (window * len(per_thread))
            if per_thread and window > 0 else 0.0
        )

    def total(self, side: str, prefix: str, field: int, root: str = "") -> int:
        """Sum ``field`` over spans named ``prefix``* under roots named
        ``root``*, on the "fg" or "bg" side (or "all")."""
        tables = {"fg": [self.fg], "bg": [self.bg], "all": [self.fg, self.bg]}
        out = 0
        for table in tables[side]:
            for key, entry in table.items():
                root_name, __, name = key.partition(" ")
                if name.startswith(prefix) and root_name.startswith(root):
                    out += entry[field]
        return out

    def to_dict(self) -> dict:
        return {"fg": self.fg, "bg": self.bg, "fg_self_ns": self.fg_self_ns,
                "fg_roots": self.fg_roots, "coverage": self.coverage}

    @classmethod
    def from_dict(cls, data: dict) -> "Tally":
        tally = cls.__new__(cls)
        tally.__dict__.update(data)
        return tally

