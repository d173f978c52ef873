"""Quorum certificates.

A :class:`QuorumCertificate` aggregates 2f+1 matching signatures produced
during local PBFT consensus (Section II-A). The certificate is what
protects an entry against tampering during global replication: a Byzantine
node can drop an entry or send garbage, but cannot fabricate a certificate
binding a different entry to the same (group, sequence) slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable as HashableKey, Iterable, Optional, Tuple

from repro.crypto.keystore import KeyStore
from repro.crypto.signatures import SIGNATURE_SIZE, Signature


@dataclass(frozen=True)
class QuorumCertificate:
    """A set of signatures from distinct signers over one statement.

    ``statement`` is the exact byte string signed (typically
    ``b"commit:" + entry_digest``); ``signatures`` maps signer identity to
    its signature. ``epoch`` records the membership epoch the certificate
    was formed in: under live reconfiguration the quorum size and the set
    of legitimate signers both change over time, so a certificate must be
    validated against the membership view of *its* epoch, not whatever
    view is current when it is checked.
    """

    statement: bytes
    signatures: Tuple[Tuple[HashableKey, Signature], ...]
    epoch: int = 0

    @staticmethod
    def assemble(
        statement: bytes,
        signatures: Dict[HashableKey, Signature],
        epoch: int = 0,
    ) -> "QuorumCertificate":
        """Build a certificate from a signer->signature mapping."""
        ordered = tuple(sorted(signatures.items(), key=lambda kv: repr(kv[0])))
        return QuorumCertificate(
            statement=statement, signatures=ordered, epoch=epoch
        )

    @property
    def signer_count(self) -> int:
        return len(self.signatures)

    @property
    def signers(self) -> Tuple[HashableKey, ...]:
        return tuple(identity for identity, _ in self.signatures)

    @property
    def size_bytes(self) -> int:
        """Wire size: statement + (identity stub + signature) per signer."""
        return len(self.statement) + self.signer_count * (8 + SIGNATURE_SIZE)

    def verify(
        self,
        keystore: KeyStore,
        quorum: int,
        allowed_signers: Iterable[HashableKey] = (),
    ) -> bool:
        """Check the certificate carries >= ``quorum`` valid, distinct signatures.

        If ``allowed_signers`` is non-empty, every signer must belong to it
        (e.g. the membership of the group that ran the PBFT instance).
        Delegates to :meth:`KeyStore.verify_batch`, which converts the
        statement once and memoizes individual signature verdicts.
        """
        valid = keystore.verify_batch(
            self.statement, self.signatures, allowed_signers
        )
        return valid is not None and valid >= quorum


class DeferredCertificate:
    """A :class:`QuorumCertificate` whose signatures are made on first read.

    Forming the certificate fixes what it certifies: the statement, the
    signer identities and the epoch. The HMACs are computed, by the same
    keystore, the first time anything reads the certificate
    (:attr:`signatures`, :attr:`signers`, :attr:`signer_count`,
    :attr:`size_bytes` or :meth:`verify`), so the result equals the
    eagerly assembled certificate field for field — see :meth:`signed`.
    A certificate nothing reads is never signed.
    """

    __slots__ = ("statement", "epoch", "_keystore", "_signers", "_signed")

    def __init__(
        self,
        keystore: KeyStore,
        statement: bytes,
        signers: Iterable[HashableKey],
        epoch: int = 0,
    ) -> None:
        self.statement = statement
        self.epoch = epoch
        self._keystore = keystore
        self._signers = tuple(signers)
        self._signed: Optional[QuorumCertificate] = None

    def signed(self) -> QuorumCertificate:
        """The signed certificate (signing it now if nothing has yet)."""
        cert = self._signed
        if cert is None:
            keystore, statement = self._keystore, self.statement
            cert = self._signed = QuorumCertificate.assemble(
                statement,
                {s: keystore.sign_as(s, statement) for s in self._signers},
                epoch=self.epoch,
            )
        return cert

    @property
    def signatures(self) -> Tuple[Tuple[HashableKey, Signature], ...]:
        return self.signed().signatures

    @property
    def signers(self) -> Tuple[HashableKey, ...]:
        return self.signed().signers

    @property
    def signer_count(self) -> int:
        return self.signed().signer_count

    @property
    def size_bytes(self) -> int:
        return self.signed().size_bytes

    def verify(
        self,
        keystore: KeyStore,
        quorum: int,
        allowed_signers: Iterable[HashableKey] = (),
    ) -> bool:
        return self.signed().verify(keystore, quorum, allowed_signers)

    # The value is fixed at formation, so sharing the object is a correct
    # deep copy. It also keeps ``dataclasses.asdict`` of an event carrying
    # it (which deep-copies non-dataclass fields) from cloning the keystore.
    def __deepcopy__(self, memo: dict) -> "DeferredCertificate":
        return self
