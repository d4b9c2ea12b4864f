"""Reference implementations only the tests call.

Each is the node-at-a-time (``traversal``, ``upward``, ``tree``),
pair-at-a-time (``merge``), bin-at-a-time (``service``) or
row-at-a-time (``grouping``) code the
batched production path replaced,
moved verbatim out of ``src/`` and turned into a free function — or,
for ``mailbox``, the list-scanning ``Mailbox`` the per-``(src, tag)``
heaps replaced, kept whole as ``ScanMailbox``.
"""
