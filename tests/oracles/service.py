"""Per-bin owner-side service, kept verbatim from
``FunctionShippingEngine._serve`` as the oracle for the per-drain
service that replaced it: every request bin is evaluated on its own —
per-bin ``np.unique``, one streamed ``TraversalEngine.compute`` per
(bin, key) through ``_descend``, charged as it is computed."""

from __future__ import annotations

import numpy as np

from repro.core.bins import RequestBin
from repro.core.function_shipping import FunctionShippingEngine


def _serve_bin(self: FunctionShippingEngine, bin_: RequestBin) -> np.ndarray:
    """Owner-side service: evaluate whole subtrees for a request bin."""
    d = self.particles.dims if self.particles.n else bin_.coords.shape[1]
    values = (np.zeros(bin_.n) if self._mode == "potential"
              else np.zeros((bin_.n, d)))
    for key in np.unique(bin_.keys):
        sel = np.flatnonzero(bin_.keys == key)
        values[sel] = self._descend(int(key), bin_.coords[sel])
    return values


def serve_per_bin(self: FunctionShippingEngine, bins: list[RequestBin]):
    """The per-bin service behind the per-drain ``serve`` contract:
    bin ``i`` is walked, evaluated and charged when its values are
    pulled, i.e. after its receive is charged and before its result is
    sent.  Install with
    ``monkeypatch.setattr(FunctionShippingEngine, "_serve",
    serve_per_bin)``."""
    for bin_ in bins:
        yield _serve_bin(self, bin_)
