"""Unit and property tests for GF(256), matrices, and Reed-Solomon."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.chunking import join_chunks, pad_to_chunks
from repro.erasure.galois import GF256
from repro.erasure.matrix import Matrix
from repro.erasure.reed_solomon import ReedSolomonCodec

field_elem = st.integers(min_value=0, max_value=255)
nonzero_elem = st.integers(min_value=1, max_value=255)


class TestGalois:
    @given(a=field_elem, b=field_elem)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(a=field_elem, b=field_elem, c=field_elem)
    @settings(max_examples=200)
    def test_mul_associative_and_distributive(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))
        assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)

    @given(a=nonzero_elem)
    def test_inverse(self, a):
        assert GF256.mul(a, GF256.inverse(a)) == 1

    def test_identity_and_zero(self):
        for a in range(256):
            assert GF256.mul(a, 1) == a
            assert GF256.mul(a, 0) == 0
            assert GF256.add(a, a) == 0  # characteristic 2

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inverse(0)

    @given(a=field_elem)
    def test_pow(self, a):
        assert GF256.pow(a, 0) == 1
        assert GF256.pow(a, 1) == a
        assert GF256.pow(a, 2) == GF256.mul(a, a)


class TestMatrix:
    def test_identity_multiplication(self):
        m = Matrix([[1, 2], [3, 4]])
        assert Matrix.identity(2).multiply(m) == m
        assert m.multiply(Matrix.identity(2)) == m

    def test_inversion_roundtrip(self):
        m = Matrix.vandermonde(4, 4)
        inv = m.invert()
        assert m.multiply(inv) == Matrix.identity(4)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [1, 2]]).invert()

    def test_non_square_inversion_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2, 3], [4, 5, 6]]).invert()

    def test_vandermonde_any_square_subset_invertible(self):
        v = Matrix.vandermonde(8, 4)
        for rows in ([0, 1, 2, 3], [4, 5, 6, 7], [0, 3, 5, 7], [1, 2, 6, 7]):
            v.select_rows(rows).invert()  # must not raise

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2]]).multiply(Matrix([[1, 2]]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            Matrix([[300]])
        with pytest.raises(ValueError):
            Matrix([])

    def test_vandermonde_row_limit(self):
        with pytest.raises(ValueError):
            Matrix.vandermonde(257, 3)


class TestReedSolomon:
    def test_systematic_prefix(self):
        codec = ReedSolomonCodec(3, 2)
        data = [b"aa", b"bb", b"cc"]
        chunks = codec.encode_chunks(data)
        assert chunks[:3] == data
        assert len(chunks) == 5

    def test_decode_from_any_subset(self):
        import itertools

        codec = ReedSolomonCodec(3, 3)
        data = [b"abcd", b"efgh", b"ijkl"]
        chunks = codec.encode_chunks(data)
        for subset in itertools.combinations(range(6), 3):
            got = codec.decode_chunks({i: chunks[i] for i in subset})
            assert got == data, subset

    def test_insufficient_chunks_rejected(self):
        codec = ReedSolomonCodec(3, 2)
        chunks = codec.encode_chunks([b"aa", b"bb", b"cc"])
        with pytest.raises(ValueError):
            codec.decode_chunks({0: chunks[0], 1: chunks[1]})

    def test_corrupted_chunk_gives_wrong_message(self):
        codec = ReedSolomonCodec(2, 2)
        chunks = codec.encode_chunks([b"aa", b"bb"])
        bad = {1: chunks[1], 3: b"XX"}
        assert codec.decode_chunks(bad) != [b"aa", b"bb"]

    def test_message_roundtrip_with_padding(self):
        codec = ReedSolomonCodec(4, 3)
        for size in (0, 1, 7, 8, 100, 1001):
            msg = bytes(range(256)) * (size // 256 + 1)
            msg = msg[:size]
            chunks = codec.encode(msg)
            assert codec.decode({i: chunks[i] for i in (0, 2, 4, 6)}) == msg

    def test_inconsistent_sizes_rejected(self):
        codec = ReedSolomonCodec(2, 1)
        with pytest.raises(ValueError):
            codec.decode_chunks({0: b"aa", 1: b"b"})

    def test_chunk_index_out_of_range(self):
        codec = ReedSolomonCodec(2, 1)
        with pytest.raises(ValueError):
            codec.decode_chunks({0: b"aa", 5: b"bb"})

    def test_limits(self):
        with pytest.raises(ValueError):
            ReedSolomonCodec(0, 2)
        with pytest.raises(ValueError):
            ReedSolomonCodec(2, -1)
        with pytest.raises(ValueError):
            ReedSolomonCodec(200, 100)

    def test_overhead(self):
        assert ReedSolomonCodec(13, 15).overhead == pytest.approx(28 / 13)

    @given(
        n_data=st.integers(min_value=1, max_value=12),
        n_parity=st.integers(min_value=0, max_value=12),
        message=st.binary(min_size=0, max_size=300),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_any_n_data_chunks_rebuild(
        self, n_data, n_parity, message, data
    ):
        codec = ReedSolomonCodec(n_data, n_parity)
        chunks = codec.encode(message)
        indices = data.draw(
            st.permutations(range(n_data + n_parity)).map(
                lambda p: sorted(p[:n_data])
            )
        )
        assert codec.decode({i: chunks[i] for i in indices}) == message


class TestChunking:
    def test_roundtrip(self):
        for n in (1, 2, 5, 13):
            for msg in (b"", b"x", b"hello world" * 7):
                assert join_chunks(pad_to_chunks(msg, n)) == msg

    def test_equal_chunk_sizes(self):
        chunks = pad_to_chunks(b"hello world", 4)
        assert len({len(c) for c in chunks}) == 1
        assert len(chunks) == 4

    def test_corrupt_length_header_detected(self):
        chunks = pad_to_chunks(b"hi", 2)
        huge = (2**40).to_bytes(8, "big") + b"".join(chunks)[8:]
        with pytest.raises(ValueError):
            join_chunks([huge])


class TestSeededErasure:
    """Seeded random-erasure property sweep.

    The hypothesis test above samples exactly-``n_data`` survivor sets;
    this sweep drives the codec the way the checker drives the protocols:
    a pinned seed generates erasure patterns of every survivable weight,
    so the run is reproducible byte-for-byte and covers parity-heavy
    subsets the combinatorial tests skip.
    """

    def test_random_erasure_patterns_round_trip(self):
        rng = random.Random(0x5EED)
        for n_data, n_parity in ((1, 2), (3, 2), (4, 3), (7, 4), (5, 5)):
            codec = ReedSolomonCodec(n_data, n_parity)
            n_total = n_data + n_parity
            for _ in range(12):
                message = rng.randbytes(rng.randint(0, 300))
                chunks = codec.encode(message)
                # Erase as many chunks as the code tolerates or fewer.
                erased = rng.sample(
                    range(n_total), rng.randint(0, n_parity)
                )
                survivors = {
                    i: chunks[i] for i in range(n_total) if i not in erased
                }
                # Decoding may use any n_data of the survivors.
                subset = dict(rng.sample(sorted(survivors.items()), n_data))
                assert codec.decode(subset) == message

    def test_one_erasure_too_many_fails_closed(self):
        rng = random.Random(0xDEAD)
        codec = ReedSolomonCodec(4, 2)
        chunks = codec.encode(rng.randbytes(100))
        survivors = rng.sample(range(6), 3)  # n_data - 1 chunks remain
        with pytest.raises(ValueError):
            codec.decode({i: chunks[i] for i in survivors})

    def test_seeded_sweep_is_deterministic(self):
        def fingerprint(seed):
            rng = random.Random(seed)
            codec = ReedSolomonCodec(3, 2)
            out = []
            for _ in range(5):
                message = rng.randbytes(rng.randint(1, 50))
                chunks = codec.encode(message)
                out.append(b"".join(chunks))
            return out

        assert fingerprint(7) == fingerprint(7)
        assert fingerprint(7) != fingerprint(8)


class TestKernelsAndDecodeCache:
    """The optimised row kernels and the inverted-submatrix memo."""

    @staticmethod
    def _chunks(n, length, seed):
        rng = random.Random(seed)
        return [bytes(rng.randrange(256) for _ in range(length)) for _ in range(n)]

    def test_decode_cache_identical_output(self):
        """Decoding with the submatrix cache equals decoding without it."""
        cached = ReedSolomonCodec(n_data=4, n_parity=3)
        uncached = ReedSolomonCodec(n_data=4, n_parity=3)
        data = self._chunks(4, 257, seed=11)
        encoded = cached.encode_chunks(data)
        assert uncached.encode_chunks(data) == encoded
        survivor_sets = [
            (1, 2, 4, 5),
            (0, 3, 5, 6),
            (3, 4, 5, 6),
            (1, 2, 4, 5),  # repeat: cache hit
        ]
        for survivors in survivor_sets:
            available = {i: encoded[i] for i in survivors}
            uncached._decode_cache.clear()  # force a fresh inversion
            assert cached.decode_chunks(available) == uncached.decode_chunks(
                available
            ) == data
        # The repeated survivor set was served from the memo.
        assert len(cached._decode_cache) == 3

    def test_decode_cache_bounded(self, monkeypatch):
        from repro.erasure import reed_solomon

        monkeypatch.setattr(reed_solomon, "_DECODE_CACHE_LIMIT", 2)
        codec = ReedSolomonCodec(n_data=3, n_parity=3)
        data = self._chunks(3, 64, seed=5)
        encoded = codec.encode_chunks(data)
        for survivors in [(1, 2, 3), (0, 2, 4), (2, 3, 4), (1, 3, 5)]:
            available = {i: encoded[i] for i in survivors}
            assert codec.decode_chunks(available) == data
        assert len(codec._decode_cache) == 2

    def test_numpy_xor_equals_int_xor(self, monkeypatch):
        """The production numpy-XOR accumulation and the int-XOR fallback
        produce the same bytes, and both equal the per-byte definition."""
        from repro.erasure import reed_solomon

        if reed_solomon._np is None:
            pytest.skip("numpy unavailable")
        rng = random.Random(3)
        shapes = [(1, 1), (3, 5), (7, 7), (5, 5)]
        for length in (1, 64, 300, 17_500):
            for n_rows, n_cols in shapes:
                coeffs = [
                    [rng.randrange(256) for _ in range(n_cols)]
                    for _ in range(n_rows)
                ]
                coeffs[0] = [0] * n_cols  # nothing to combine: zeros
                coeffs.append([1] * n_cols)  # plain XOR, no multiplication
                coeffs.append([0] * (n_cols - 1) + [1])  # one row, untouched
                rows = [rng.randbytes(length) for _ in range(n_cols)]
                fast = ReedSolomonCodec._apply_matrix(coeffs, rows, length)
                with monkeypatch.context() as no_numpy:
                    no_numpy.setattr(reed_solomon, "_np", None)
                    fallback = ReedSolomonCodec._apply_matrix(coeffs, rows, length)
                assert fast == fallback
                assert all(type(row) is bytes and len(row) == length for row in fast)
                assert fast[0] == bytes(length) and fast[-1] == rows[-1]
                if length <= 300:
                    for coefficients, out in zip(coeffs, fast):
                        expected = bytearray(length)
                        for coeff, row in zip(coefficients, rows):
                            for i, byte in enumerate(row):
                                expected[i] ^= GF256.mul(coeff, byte)
                        assert out == bytes(expected)

    def test_decode_returns_surviving_data_chunks_as_they_are(self, monkeypatch):
        """Only lost data chunks go through the row arithmetic."""
        codec = ReedSolomonCodec(n_data=5, n_parity=3)
        data = self._chunks(5, 97, seed=8)
        encoded = codec.encode_chunks(data)
        combined = []
        real = ReedSolomonCodec._combine_rows
        monkeypatch.setattr(
            ReedSolomonCodec,
            "_combine_rows",
            staticmethod(lambda *args: combined.append(1) or real(*args)),
        )
        for survivors, lost in [((0, 2, 4, 5, 7), 2), ((3, 4, 5, 6, 7), 3), ((0, 1, 2, 3, 4), 0)]:
            del combined[:]
            assert codec.decode_chunks({i: encoded[i] for i in survivors}) == data
            assert len(combined) == lost

    def test_codec_without_numpy(self, monkeypatch):
        """The codec round-trips identically with numpy masked out."""
        from repro.erasure import reed_solomon

        data = self._chunks(4, 129, seed=2)
        with_np = ReedSolomonCodec(n_data=4, n_parity=2)
        encoded = with_np.encode_chunks(data)
        monkeypatch.setattr(reed_solomon, "_np", None)
        without_np = ReedSolomonCodec(n_data=4, n_parity=2)
        assert without_np.encode_chunks(data) == encoded
        available = {i: encoded[i] for i in (1, 3, 4, 5)}
        assert without_np.decode_chunks(available) == data

    def test_mul_table_is_immutable_bytes(self):
        table = GF256.mul_table(0x53)
        assert isinstance(table, bytes)
        assert len(table) == 256
        assert table[7] == GF256.mul(0x53, 7)
