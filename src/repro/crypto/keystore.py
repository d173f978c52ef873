"""Public-key infrastructure for the deployment.

MassBFT assumes a PKI where every node owns a key pair and all public keys
are known (Section III-A). :class:`KeyStore` plays the role of that PKI in
the simulation: it generates per-node key pairs deterministically from a
deployment seed, signs on behalf of a node, and verifies signatures
against registered identities.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable as HashableKey,
    Iterable,
    Optional,
    Tuple,
)

from repro.crypto.hashing import Hashable, _as_bytes
from repro.crypto.signatures import KeyPair, Signature, sign, verify

#: Entries kept in the verification memo before it is dropped wholesale.
#: Certificate audits re-check the same (signer, statement, mac) triple
#: at every group that validates the certificate, so hits vastly
#: outnumber misses; a flush-at-limit bound keeps adversarial traffic
#: from growing the memo without bound.
_VERIFY_CACHE_LIMIT = 1 << 16


class KeyStore:
    """Maps node identities to key pairs; central sign/verify authority.

    Identities are arbitrary hashable values — in practice
    :class:`repro.sim.network.NodeAddress` instances.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._keys: Dict[HashableKey, KeyPair] = {}
        self._verify_cache: Dict[Tuple[bytes, bytes, bytes], bool] = {}

    def register(self, identity: HashableKey) -> KeyPair:
        """Create (or return the existing) key pair for ``identity``."""
        existing = self._keys.get(identity)
        if existing is not None:
            return existing
        keypair = KeyPair.generate(seed=f"{self.seed}:{identity!r}".encode("utf-8"))
        self._keys[identity] = keypair
        return keypair

    def sign_as(self, identity: HashableKey, message: Hashable) -> Signature:
        """Sign ``message`` with ``identity``'s private key."""
        keypair = self._keys.get(identity)
        if keypair is None:
            raise KeyError(f"identity {identity!r} is not registered")
        return sign(keypair, message)

    def verify_from(
        self, identity: HashableKey, message: Hashable, signature: Signature
    ) -> bool:
        """Verify that ``signature`` is ``identity``'s signature over ``message``.

        Results are memoized by (public key, message, mac): a signature is
        immutable, so its verdict never changes, and the same certificate
        signature is re-checked whenever its certificate is audited.
        """
        keypair = self._keys.get(identity)
        if keypair is None:
            return False
        cache = self._verify_cache
        key = (keypair.public, _as_bytes(message), signature.mac)
        verdict = cache.get(key)
        if verdict is None:
            verdict = verify(keypair, message, signature)
            if len(cache) >= _VERIFY_CACHE_LIMIT:
                cache.clear()
            cache[key] = verdict
        return verdict

    def verify_batch(
        self,
        statement: Hashable,
        signatures: Iterable[Tuple[HashableKey, Signature]],
        allowed_signers: Iterable[HashableKey] = (),
    ) -> Optional[int]:
        """Verify many signatures over one common ``statement``.

        Returns the number of *distinct* valid signers, or ``None`` as
        soon as any signature fails to verify or (when
        ``allowed_signers`` is non-empty) comes from an outsider. The
        statement is converted to bytes once and every check runs through
        the verification memo, which is what makes quorum-certificate
        audits (2f+1 signatures over one statement, re-audited at every
        group) cheap.
        """
        message = _as_bytes(statement)
        allowed = set(allowed_signers)
        seen = set()
        for identity, signature in signatures:
            if identity in seen:
                continue
            if allowed and identity not in allowed:
                return None
            if not self.verify_from(identity, message, signature):
                return None
            seen.add(identity)
        return len(seen)

    def __contains__(self, identity: HashableKey) -> bool:
        return identity in self._keys

    def __len__(self) -> int:
        return len(self._keys)
