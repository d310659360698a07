"""Counter-based stream: determinism, splitting, sampling helpers."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heiscert.sampler import (BLOCK, FRACTIONS, GAMMA, MASK64, MAX_DEN,
                              MAX_NUM, RandomStream)


def mix64(x: int) -> int:
    """Oracle: the SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA
    2014), written apart from RandomStream.block."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MASK64), st.integers(1, 4 * BLOCK + 5))
@example(0, 4 * BLOCK + 5)  # four block boundaries crossed
@example(MASK64, 4 * BLOCK + 5)
def test_next_u64_is_splitmix64_of_the_counter(seed, draws):
    stream = RandomStream(seed)
    assert [stream.next_u64() for _ in range(draws)] == \
        [mix64(seed + i * GAMMA) for i in range(1, draws + 1)]
    assert stream._counter == draws


class ReferenceStream:
    """The scalar stream, one mix64 per draw, with no block."""

    def __init__(self, seed):
        self.seed = seed
        self._counter = 0

    def next_u64(self):
        self._counter += 1
        return mix64(self.seed + self._counter * GAMMA)

    def next_int(self, lo, hi):
        return lo + self.next_u64() % (hi - lo + 1)

    def next_ints(self, count, lo, hi):
        return [self.next_int(lo, hi) for _ in range(count)]

    def next_fraction(self):
        row = FRACTIONS[self.next_u64() % len(FRACTIONS)]
        return row[self.next_u64() % MAX_DEN]

    def next_triple(self, nonzero=False):
        while True:
            triple = tuple(self.next_fraction() for _ in range(3))
            if not nonzero or any(triple):
                return triple

    def distinct_triples(self, count, nonzero=False):
        return _fraction_keyed(self, count, nonzero)


calls = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("next_int"), st.integers(-5, 5), st.integers(5, 9)),
    st.tuples(st.just("next_ints"), st.integers(0, BLOCK),
              st.integers(-5, 5), st.integers(5, 9)),
    st.tuples(st.just("next_fraction")),
    st.tuples(st.just("next_triple"), st.booleans()),
    st.tuples(st.just("distinct_triples"), st.integers(0, 12),
              st.booleans()))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, MASK64) | st.sampled_from([0, MASK64]),
       st.lists(calls, max_size=60))
def test_interleaved_draws_match_the_scalar_reference(seed, script):
    stream, reference = RandomStream(seed), ReferenceStream(seed)
    for name, *args in script:
        assert getattr(stream, name)(*args) == \
            getattr(reference, name)(*args)
        assert stream._counter == reference._counter
    assert stream.next_u64() == reference.next_u64()


def test_streams_with_equal_seeds_agree():
    a = RandomStream(42)
    b = RandomStream(42)
    assert [a.next_u64() for _ in range(10)] == \
        [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    assert RandomStream(1).next_u64() != RandomStream(2).next_u64()


@pytest.mark.parametrize("seed", [-1, MASK64 + 1])
def test_seed_outside_64_bits_refused(seed):
    with pytest.raises(ValueError, match="outside"):
        RandomStream(seed)
    assert RandomStream(MASK64).seed == MASK64


def test_split_is_deterministic_and_independent():
    root = RandomStream(7)
    left1 = root.split("left")
    right = root.split("right")
    left2 = RandomStream(7).split("left")
    assert left1.next_u64() == left2.next_u64()
    assert left1.seed != right.seed


def test_split_unaffected_by_parent_draws():
    fresh = RandomStream(9)
    spent = RandomStream(9)
    for _ in range(5):
        spent.next_u64()
    assert fresh.split("x").seed == spent.split("x").seed


def test_fraction_bounds():
    stream = RandomStream(11)
    for _ in range(200):
        f = stream.next_fraction()
        assert isinstance(f, Fraction)
        assert abs(f) <= 12
        assert f.denominator <= 5


@pytest.mark.parametrize("seed", [0, 11, 12345, MASK64])
def test_next_fraction_equals_two_next_int_draws(seed, monkeypatch):
    """Each draw is Fraction(next_int(-12, 12), next_int(1, 5)) of a twin
    stream, and takes exactly two draws, all of them from blocks."""
    stream, twin = RandomStream(seed), RandomStream(seed)
    original = RandomStream.block
    blocks = []
    monkeypatch.setattr(RandomStream, "block", lambda self, first:
                        blocks.append((self, first)) or original(self, first))
    draws = 3000
    for _ in range(draws):
        f = stream.next_fraction()
        assert type(f) is Fraction
        assert f == Fraction(twin.next_int(-MAX_NUM, MAX_NUM),
                             twin.next_int(1, MAX_DEN))
    assert stream._counter == twin._counter == 2 * draws
    # Two draws never straddle a block: 6000 draws fill 94 blocks.
    assert [first for s, first in blocks if s is stream] == \
        [1 + BLOCK * k for k in range(-(-2 * draws // BLOCK))]


def test_nonzero_triples():
    stream = RandomStream(13)
    for _ in range(100):
        triple = stream.next_triple(nonzero=True)
        assert any(x != 0 for x in triple)


def test_distinct_triples():
    stream = RandomStream(15)
    triples = stream.distinct_triples(50)
    assert len(set(triples)) == 50


class ScriptedStream(RandomStream):
    """A stream whose first draws are the given values, counted like
    real draws; then it draws its seed's own values.  The script replaces
    the first lanes of the blocks the stream computes."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.scripted = list(script)

    @property
    def script(self):
        """The scripted values not drawn yet."""
        return self.scripted[self._counter:]

    def block(self, first):
        own = super().block(first)
        head = self.scripted[first - 1:first - 1 + BLOCK]
        return tuple(head) + own[len(head):]


def _cell_draws(*values):
    """The two draws that make next_fraction return p/q, per (p, q)."""
    return [x for p, q in values for x in (p + MAX_NUM, q - 1)]


def test_distinct_triples_keep_first_draws_in_order():
    one, two, three = ((Fraction(n), Fraction(0), Fraction(0))
                       for n in (1, 2, 3))
    # The draws of one, one, two, one, three, two, their first value
    # spelled 1/1, 2/2, 4/2, 1/1, 3/1 and 2/1, and 0 as 0/1 and 0/3.
    script = _cell_draws(*[cell for first in
                           [(1, 1), (2, 2), (4, 2), (1, 1), (3, 1), (2, 1)]
                           for cell in (first, (0, 1), (0, 3))])
    stream = ScriptedStream(15, script)
    assert stream.distinct_triples(3) == [one, two, three]
    # The last triple, two again, is never drawn.
    assert stream.script == _cell_draws((2, 1), (0, 1), (0, 3))


def _fraction_keyed(stream, count, nonzero):
    """Reference: the first count distinct next_triple draws, in order,
    dropped by hashing the Fraction triples."""
    out, seen = [], set()
    while len(out) < count:
        triple = stream.next_triple(nonzero=nonzero)
        if triple not in seen:
            seen.add(triple)
            out.append(triple)
    return out


# Cells of values that several (p, q) share, zero among them, so drawn
# triples repeat and collide across spellings (2/2 and 1/1).
colliding_cells = st.sampled_from([(0, 1), (0, 4), (1, 1), (2, 2), (5, 5),
                                   (-2, 2), (-1, 1), (2, 1), (4, 2), (6, 3)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, MASK64), st.integers(0, 30), st.booleans(),
       st.lists(colliding_cells, max_size=60))
def test_distinct_triples_match_fraction_keyed_reference(seed, count,
                                                         nonzero, cells):
    script = _cell_draws(*cells)
    stream, twin = ScriptedStream(seed, script), ScriptedStream(seed, script)
    assert stream.distinct_triples(count, nonzero=nonzero) == \
        _fraction_keyed(twin, count, nonzero)
    assert stream._counter == twin._counter


def _refuse_draws(self, first):
    raise AssertionError("a sample was drawn")


# The sampled values, counted here by reducing every p/q the sampler can
# draw, are 85; so there are 85**3 distinct triples, one of them the
# identity.
VALUES = len({Fraction(p, q) for p in range(-MAX_NUM, MAX_NUM + 1)
              for q in range(1, MAX_DEN + 1)})


@pytest.mark.parametrize("count, nonzero", [
    (-1, False), (VALUES ** 3 + 1, False), (VALUES ** 3, True)])
def test_distinct_triples_refuses_a_count_it_cannot_draw(count, nonzero,
                                                        monkeypatch):
    # No draw could ever complete such a count, so none is made.
    assert VALUES == 85
    monkeypatch.setattr(RandomStream, "block", _refuse_draws)
    bound = VALUES ** 3 - nonzero
    with pytest.raises(ValueError, match=rf"outside \[0, {bound}\]"):
        RandomStream(15).distinct_triples(count, nonzero=nonzero)
    assert RandomStream(15).distinct_triples(0, nonzero=nonzero) == []


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        RandomStream(1).next_int(3, 2)
    with pytest.raises(ValueError, match="empty range"):
        RandomStream(1).next_ints(4, 3, 2)


def test_a_full_block_take_crosses_a_block_boundary():
    """64 draws taken after 10 are draws 11 to 74, across the boundary
    after draw 64, and the draw after them is draw 75."""
    stream = RandomStream(21)
    stream._take(10)
    assert stream._take(BLOCK) == \
        tuple(mix64(21 + i * GAMMA) for i in range(11, 11 + BLOCK))
    assert stream._counter == 10 + BLOCK
    assert stream.next_u64() == mix64(21 + (11 + BLOCK) * GAMMA)


@pytest.mark.parametrize("count", [BLOCK + 1, -1])
def test_take_refuses_a_count_one_block_cannot_give(count):
    """One block holds 64 draws: a take of 65 would return 64 and count
    65, and a negative one would move the counter back.  Neither moves
    the stream."""
    stream = RandomStream(0)
    stream._take(3)
    with pytest.raises(ValueError, match=rf"outside \[0, {BLOCK}\]"):
        stream._take(count)
    with pytest.raises(ValueError, match=rf"outside \[0, {BLOCK}\]"):
        stream.next_ints(count, 0, 1)
    assert stream._counter == 3
    assert stream.next_u64() == mix64(4 * GAMMA)


def test_mix64_is_stable():
    # pinned outputs guard the mixing constants against accidental edits
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(2) == 15839785061582574730
