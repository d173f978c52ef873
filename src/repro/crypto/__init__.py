"""Cryptographic substrate.

Provides the primitives MassBFT relies on (Section III-A, IV-C):

* SHA-256 digests (:mod:`repro.crypto.hashing`) — real hashes, used for
  entry digests, Merkle trees, and content addressing;
* a simulated ED25519-style signature scheme
  (:mod:`repro.crypto.signatures`) with a PKI keystore
  (:mod:`repro.crypto.keystore`) — deterministic MACs standing in for
  public-key signatures, with the security property enforced structurally
  (an adversary without the key cannot produce a verifying signature);
* Merkle trees and inclusion proofs (:mod:`repro.crypto.merkle`) used by
  the optimistic entry rebuild;
* PBFT quorum certificates (:mod:`repro.crypto.certificates`).
"""

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.hashing import digest
from repro.crypto.keystore import KeyStore
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.signatures import KeyPair, Signature, sign, verify

__all__ = [
    "KeyPair",
    "KeyStore",
    "MerkleProof",
    "MerkleTree",
    "QuorumCertificate",
    "Signature",
    "digest",
    "sign",
    "verify",
]
