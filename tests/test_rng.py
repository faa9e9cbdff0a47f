"""Tests for repro.rng: deterministic, independent seed streams."""

from hypothesis import given, strategies as st

from repro.rng import derive_seed, seed_sequence, stream


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_labels_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_stable_across_processes(self):
        # sha256-based: these exact values must never change, or stored
        # experiment seeds silently shift
        assert derive_seed(0) == derive_seed(0)
        assert isinstance(derive_seed(0, "x"), int)
        assert 0 <= derive_seed(0, "x") < 2 ** 64

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_always_in_64bit_range(self, root, label):
        assert 0 <= derive_seed(root, label) < 2 ** 64


class TestStream:
    def test_streams_reproducible(self):
        a = stream(7, "gen").random()
        b = stream(7, "gen").random()
        assert a == b

    def test_streams_independent(self):
        a = [stream(7, "one").random() for _ in range(4)]
        b = [stream(7, "two").random() for _ in range(4)]
        assert a != b


class TestSeedSequence:
    def test_count_and_uniqueness(self):
        seeds = list(seed_sequence(3, 16, "banks"))
        assert len(seeds) == 16
        assert len(set(seeds)) == 16

    def test_prefix_stable(self):
        long = list(seed_sequence(3, 8, "banks"))
        short = list(seed_sequence(3, 4, "banks"))
        assert long[:4] == short

