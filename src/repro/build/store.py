"""BuildStore: compile each source and each unit once per owner.

A module's instrumented code depends only on that module (the paper's
separate compilation), so one process that builds many programs — the
differential corpus, a campaign, a minimizer — never needs to compile
the same thing twice.  A :class:`BuildStore` holds two bounded LRU
tables in memory:

* **function units**, keyed by :func:`~repro.build.fingerprint.unit_fingerprint`
  — the same key that decides disk-cache hits;
* **frontend products** (:class:`FrontendProducts`: the checked unit,
  its source index and the lowered MIR), keyed by the source digest,
  the prelude digest and the module name.

A :class:`~repro.build.session.BuildSession` takes a store through its
ordinary ``cache=`` argument: units go through the same
``get_unit``/``put_unit`` protocol as :class:`~repro.infra.cache.ArtifactCache`,
so the build's publish gate (:func:`repro.analysis.binverify.verify_unit`
before every ``put_unit``) verifies each unit once, when it is first
compiled.  With a ``backing`` disk cache the store reads units through
to it and writes every published unit to it too.

Frontend products are shared between every session that builds the
same text, so nothing may mutate them: devirtualization rewrites MIR in
place and therefore runs on a private lowering, memoized separately
(:meth:`FrontendProducts.lowered`).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from functools import cached_property
from typing import Dict, Hashable, List, Optional, Tuple

from repro.build.fingerprint import prelude_digest
from repro.build.graph import BuildGraph
from repro.build.source_index import SourceSpan, index_source
from repro.mir import ir
from repro.obs import OBS
from repro.tinyc.typecheck import CheckedUnit

#: LRU bound on the function units a store holds in memory (~5 KB
#: each; one quick generated program's corpus matrix needs ~100,
#: simlibc's 70 included, and each further program adds ~30)
UNIT_CAPACITY = 512
#: LRU bound on the frontend products a store holds in memory (~0.5 MB
#: each; a corpus member needs 3 — text, edit variant, stub — beside
#: simlibc's, which every member touches and so stays)
FRONTEND_CAPACITY = 8


class FrontendProducts:
    """Everything the frontend derives from one module's text.

    ``checked`` is the parse+typecheck result, :attr:`spans` the
    textual source index, :meth:`lowered` the MIR and :meth:`graph`
    its unit fingerprints — each computed at most once.  Consumers
    must treat all of it as read-only.
    """

    def __init__(self, text: str, name: str, prelude: bool) -> None:
        from repro.toolchain import frontend
        self.text = text
        with OBS.tracer.span("build.frontend", module=name):
            self.checked: CheckedUnit = frontend(text, name=name,
                                                 prelude=prelude)
        self._mir: Dict[bool, ir.MirModule] = {}
        self._graphs: Dict[Tuple[str, bool], BuildGraph] = {}

    @cached_property
    def spans(self) -> Optional[List[SourceSpan]]:
        """The source index (``None`` when the text does not index)."""
        return index_source(self.text)

    def lowered(self, devirtualize: bool = False) -> ir.MirModule:
        """The module's MIR, devirtualized on its own lowering when
        asked; either flavour is lowered once and then shared."""
        mir = self._mir.get(devirtualize)
        if mir is None:
            from repro.mir.lowering import lower_unit
            with OBS.tracer.span("build.lower",
                                 module=self.checked.name):
                mir = lower_unit(self.checked)
            if devirtualize:
                from repro.analysis.dataflow import devirtualize_module
                devirtualize_module(mir)
            self._mir[devirtualize] = mir
        return mir

    def graph(self, arch: str, devirtualize: bool = False) -> BuildGraph:
        """The unit fingerprints of :meth:`lowered` for ``arch``,
        computed once; each call returns a private copy, because a
        session updates its graph as it splices units in."""
        graph = self._graphs.get((arch, devirtualize))
        if graph is None:
            graph = BuildGraph.of(self.lowered(devirtualize),
                                  self.checked, arch)
            self._graphs[(arch, devirtualize)] = graph
        return BuildGraph(graph.module, graph.arch,
                          dict(graph.fingerprints))


class _LRU(OrderedDict):
    """Insertion-ordered dict that keeps its ``capacity`` most recently
    used entries."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity

    def lookup(self, key: Hashable):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def insert(self, key: Hashable, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.capacity:
            self.popitem(last=False)


class BuildStore:
    """In-memory unit store and frontend memo, optionally reading
    through to a disk :class:`~repro.infra.cache.ArtifactCache`."""

    def __init__(self, backing=None) -> None:
        self.backing = backing
        self._units = _LRU(UNIT_CAPACITY)
        self._frontends = _LRU(FRONTEND_CAPACITY)

    # -- unit cache protocol (as ArtifactCache) ----------------------

    def get_unit(self, fingerprint: str):
        artifact = self._units.lookup(fingerprint)
        if artifact is None and self.backing is not None:
            artifact = self.backing.get_unit(fingerprint)
            if artifact is not None:
                self._units.insert(fingerprint, artifact)
        return artifact

    def put_unit(self, fingerprint: str, artifact) -> None:
        self._units.insert(fingerprint, artifact)
        if self.backing is not None:
            self.backing.put_unit(fingerprint, artifact)

    # -- frontend memo -----------------------------------------------

    def frontend(self, text: str, name: str,
                 prelude: bool = True) -> FrontendProducts:
        """Memoized :class:`FrontendProducts` of one module.  A text
        the frontend rejects raises every time and is never stored."""
        key = (hashlib.sha256(text.encode("utf-8")).hexdigest(),
               prelude_digest(prelude), name)
        products = self._frontends.lookup(key)
        if products is None:
            products = FrontendProducts(text, name, prelude)
            self._frontends.insert(key, products)
        return products
