"""Unit and property tests for the crypto substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.certificates import QuorumCertificate
from repro.crypto.hashing import digest
from repro.crypto.keystore import KeyStore
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import KeyPair, sign, verify


class TestHashing:
    def test_digest_deterministic(self):
        assert digest(b"hello") == digest(b"hello")
        assert len(digest(b"hello")) == 32

    def test_digest_str_and_bytes_agree(self):
        assert digest("hello") == digest(b"hello")


class TestSignatures:
    def test_roundtrip(self):
        kp = KeyPair.generate(b"seed")
        sig = sign(kp, b"message")
        assert verify(kp, b"message", sig)

    def test_wrong_message_rejected(self):
        kp = KeyPair.generate(b"seed")
        sig = sign(kp, b"message")
        assert not verify(kp, b"other", sig)

    def test_wrong_key_rejected(self):
        kp1 = KeyPair.generate(b"one")
        kp2 = KeyPair.generate(b"two")
        sig = sign(kp1, b"message")
        assert not verify(kp2, b"message", sig)

    def test_deterministic_generation(self):
        assert KeyPair.generate(b"s") == KeyPair.generate(b"s")

    def test_random_generation_unique(self):
        assert KeyPair.generate() != KeyPair.generate()


class TestKeyStore:
    def test_register_and_sign(self):
        ks = KeyStore(seed=1)
        ks.register("alice")
        sig = ks.sign_as("alice", b"msg")
        assert ks.verify_from("alice", b"msg", sig)
        assert not ks.verify_from("bob", b"msg", sig)

    def test_unknown_identity_raises(self):
        ks = KeyStore()
        with pytest.raises(KeyError):
            ks.sign_as("ghost", b"m")

    def test_registration_idempotent(self):
        ks = KeyStore(seed=1)
        kp1 = ks.register("alice")
        kp2 = ks.register("alice")
        assert kp1 is kp2
        assert len(ks) == 1

    def test_deterministic_from_seed(self):
        assert KeyStore(seed=9).register("a") == KeyStore(seed=9).register("a")
        assert KeyStore(seed=9).register("a") != KeyStore(seed=8).register("a")


class TestMerkle:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        proof = tree.proof(0)
        assert proof.verify(b"only", tree.root)

    def test_proofs_verify_all_leaves(self):
        leaves = [f"leaf{i}".encode() for i in range(7)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert tree.proof(i).verify(leaf, tree.root)

    def test_tampered_leaf_rejected(self):
        leaves = [f"leaf{i}".encode() for i in range(5)]
        tree = MerkleTree(leaves)
        assert not tree.proof(2).verify(b"tampered", tree.root)

    def test_wrong_index_proof_rejected(self):
        leaves = [f"leaf{i}".encode() for i in range(4)]
        tree = MerkleTree(leaves)
        assert not tree.proof(1).verify(leaves[2], tree.root)

    def test_different_leaf_sets_have_different_roots(self):
        t1 = MerkleTree([b"a", b"b"])
        t2 = MerkleTree([b"a", b"c"])
        assert t1.root != t2.root

    def test_out_of_range_proof(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IndexError):
            tree.proof(2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_proof_size_accounting(self):
        tree = MerkleTree([bytes([i]) for i in range(16)])
        proof = tree.proof(5)
        assert proof.size_bytes == 8 + 4 * 33  # 4 levels

    @given(
        leaves=st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=33),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_inclusion(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        proof = tree.proof(index)
        assert proof.verify(leaves[index], tree.root)
        # A proof binds to its index's leaf: any *different* leaf fails.
        other = data.draw(st.binary(min_size=0, max_size=40))
        if other != leaves[index]:
            assert not proof.verify(other, tree.root)


class TestQuorumCertificate:
    def make_cert(self, ks, signers, statement=b"stmt"):
        sigs = {}
        for name in signers:
            ks.register(name)
            sigs[name] = ks.sign_as(name, statement)
        return QuorumCertificate.assemble(statement, sigs)

    def test_valid_certificate(self):
        ks = KeyStore(seed=1)
        cert = self.make_cert(ks, ["a", "b", "c"])
        assert cert.verify(ks, quorum=3)
        assert cert.signer_count == 3

    def test_insufficient_quorum(self):
        ks = KeyStore(seed=1)
        cert = self.make_cert(ks, ["a", "b"])
        assert not cert.verify(ks, quorum=3)

    def test_wrong_statement_signature_fails(self):
        ks = KeyStore(seed=1)
        ks.register("a")
        bad = QuorumCertificate.assemble(
            b"statement", {"a": ks.sign_as("a", b"other")}
        )
        assert not bad.verify(ks, quorum=1)

    def test_signer_outside_allowed_set_fails(self):
        ks = KeyStore(seed=1)
        cert = self.make_cert(ks, ["a", "b", "intruder"])
        assert not cert.verify(ks, quorum=2, allowed_signers=["a", "b"])
        assert cert.verify(ks, quorum=3, allowed_signers=["a", "b", "intruder"])

    def test_unregistered_signer_fails(self):
        ks1 = KeyStore(seed=1)
        cert = self.make_cert(ks1, ["a"])
        ks2 = KeyStore(seed=2)  # different PKI
        assert not cert.verify(ks2, quorum=1)

    def test_size_accounting(self):
        ks = KeyStore(seed=1)
        cert = self.make_cert(ks, ["a", "b"])
        assert cert.size_bytes == len(b"stmt") + 2 * 72
