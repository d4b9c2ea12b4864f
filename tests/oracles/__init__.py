"""Reference implementations only the tests call.

Each is the node-at-a-time (``traversal``, ``upward``) or bin-at-a-time
(``service``) code the batched production path replaced, moved verbatim
out of ``src/`` and turned into a free function.  The two
references production still dispatches to (``build_tree_reference`` and
``Tree.compute_monopoles_reference``, used below
``SMALL_BUILD_CUTOFF``) stay in :mod:`repro.bh.tree`.
"""
