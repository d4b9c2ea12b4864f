"""Reference implementations only the tests call.

Each is the node-at-a-time (``traversal``, ``upward``, ``tree``),
pair-at-a-time (``merge``), bin-at-a-time (``service``) or
row-at-a-time (``grouping``) code the
batched production path replaced,
moved verbatim out of ``src/`` and turned into a free function — or,
for ``mailbox``, the list-scanning ``Mailbox`` the per-``(src, tag)``
heaps replaced, kept whole as ``ScanMailbox``; for ``data_shipping``,
the engine of per-node Python objects the row tables replaced, kept
whole as ``DataShippingEngine``; for ``kernels``, the cluster kernel on
``(n, d)`` rows and the P2P chunk's per-row index take the coordinate
columns replaced.
"""
