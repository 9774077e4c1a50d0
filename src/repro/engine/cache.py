"""Content-addressed on-disk result cache for engine runs.

Layout: ``<root>/<key[:2]>/<key>.json`` (or ``.json.gz`` when the cache is
constructed with ``compress=True``) where ``key`` is the spec's sha256
:meth:`~repro.engine.spec.AbcastRunSpec.cache_key`.  Entries are whole
:class:`~repro.engine.report.RunReport` dicts in canonical JSON
(:meth:`RunReport.to_json`), written atomically (temp file + rename) so a
crashed run never leaves a half-written entry.  A corrupt or
schema-mismatched entry, or one whose stored spec or key is not the
requested one, reads as a miss and is re-run, never trusted.  A hit is
built around the caller's spec object: one read, one parse, no spec
decoding and no re-derived key.

Reads are transparent across formats — a ``compress=True`` cache still
serves legacy ``.json`` entries unchanged, and a plain cache reads
``.json.gz`` entries left by a compressing writer.  Gzip bodies are written
with ``mtime=0`` so equal reports produce byte-identical entries.

On top of the disk store sits a small in-memory LRU of *decoded* reports:
a sweep that re-reads the same cells (warm benchmark loops, repeated CLI
invocations against one :class:`ResultCache` instance) skips the JSON
parse.  The LRU is populated only by successful disk reads — never by
:meth:`put` — so external corruption of an entry is still detected the
first time each instance reads it.
"""

from __future__ import annotations

import gzip
import json
import os
import pathlib
from collections import OrderedDict
from typing import Iterable, Sequence, Union

from repro.engine.report import REPORT_SCHEMA, RunReport
from repro.engine.spec import AbcastRunSpec, RsmRunSpec
from repro.errors import ConfigurationError

__all__ = ["ResultCache"]

Spec = Union[AbcastRunSpec, RsmRunSpec]

#: Default size of the in-memory decoded-report LRU.
DEFAULT_MEMORY_ENTRIES = 256


class ResultCache:
    """Spec-keyed store of run reports under one directory."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        *,
        compress: bool = False,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.root = pathlib.Path(root).expanduser()
        self.compress = bool(compress)
        self._memory: OrderedDict[str, RunReport] = OrderedDict()
        self._memory_entries = max(0, int(memory_entries))

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def gzip_path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json.gz"

    # ----------------------------------------------------------------- reads

    def get(self, spec: Spec) -> RunReport | None:
        """The cached report for ``spec``, or None on miss/corruption."""
        key = spec.cache_key()
        hit = self._memory.get(key)
        if hit is not None:
            # The key is a content address of the spec, but keep the same
            # paranoia the disk path applies: the remembered report must
            # describe the run we were asked for.
            if type(hit.spec) is type(spec) and hit.spec == spec:
                self._memory.move_to_end(key)
                return hit
        text = self._read_text(key)
        if text is None:
            return None
        try:
            data = json.loads(text)
        except ValueError:
            return None
        if not isinstance(data, dict) or data.get("schema") != REPORT_SCHEMA:
            return None
        # Paranoia against hash collisions and hand-edited entries: the
        # stored spec and key must describe the run we were asked for.  The
        # report is then built around the caller's spec, not a decoded copy.
        if data.get("key") != key or not spec.matches(data.get("spec")):
            return None
        try:
            report = RunReport.from_dict(data, spec=spec)
        except (KeyError, TypeError, ValueError, ConfigurationError):
            # ConfigurationError covers entries whose stored spec no longer
            # decodes (unknown kind/model after a hand edit or version skew);
            # like truncated JSON, that is a miss to re-run, never a crash.
            return None
        self._remember(key, report)
        return report

    def get_many(self, specs: Sequence[Spec]) -> list[RunReport | None]:
        """Reports for ``specs``, index-aligned; ``None`` marks a miss."""
        return [self.get(spec) for spec in specs]

    def _read_text(self, key: str) -> str | None:
        """Entry body for ``key`` from either format, or None."""
        try:
            return self.path_for(key).read_text()
        except OSError:
            pass
        try:
            return gzip.decompress(self.gzip_path_for(key).read_bytes()).decode(
                "utf-8"
            )
        except (OSError, EOFError, ValueError):
            # OSError: absent file or BadGzipFile; EOFError: truncated
            # stream; ValueError/zlib.error-adjacent: mangled bytes.
            return None
        except Exception:
            # zlib.error does not share a useful base with the above.
            return None

    # ---------------------------------------------------------------- writes

    def put(self, report: RunReport, text: str | None = None) -> pathlib.Path:
        """Persist a report; returns the entry path.

        ``text`` lets callers that already hold the report's canonical JSON
        (a sweep worker's wire payload) skip re-serialising; it must be the
        report's :meth:`~repro.engine.report.RunReport.to_json` output.
        """
        if text is None:
            text = report.to_json()
        key = report.key
        if self.compress:
            path = self.gzip_path_for(key)
            body = gzip.compress(text.encode("utf-8"), mtime=0)
        else:
            path = self.path_for(key)
            body = text.encode("utf-8")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_bytes(body)
        os.replace(tmp, path)
        return path

    def put_many(self, reports: Iterable[RunReport]) -> list[pathlib.Path]:
        """Persist a batch of reports; returns their entry paths."""
        return [self.put(report) for report in reports]

    # ------------------------------------------------------------- LRU layer

    def _remember(self, key: str, report: RunReport) -> None:
        if self._memory_entries == 0:
            return
        self._memory[key] = report
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)
