"""Wire-size constants shared by every protocol message.

Message classes live with the layer that sends them
(:mod:`repro.core.replication`, :mod:`repro.core.global_raft`); each
exposes a ``size_bytes`` for the network's bandwidth model, built from
this envelope plus digests (32 B), signatures (64 B) and any embedded
payload bytes.
"""

#: Fixed per-message envelope overhead (headers, type tags, ids).
HEADER_SIZE = 32
