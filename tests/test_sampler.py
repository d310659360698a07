"""Counter-based stream: determinism, splitting, sampling helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscert.sampler import GAMMA, MASK64, MAX_DEN, MAX_NUM, RandomStream


def mix64(x: int) -> int:
    """Oracle: the SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA
    2014), written apart from RandomStream.next_u64."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MASK64), st.integers(1, 40))
def test_next_u64_is_splitmix64_of_the_counter(seed, draws):
    stream = RandomStream(seed)
    assert [stream.next_u64() for _ in range(draws)] == \
        [mix64(seed + i * GAMMA) for i in range(1, draws + 1)]


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
    stream, and takes exactly two next_u64 calls."""
    stream, twin = RandomStream(seed), RandomStream(seed)
    original = RandomStream.next_u64
    calls = []
    monkeypatch.setattr(RandomStream, "next_u64",
                        lambda self: calls.append(self) or original(self))
    draws = 3000
    for _ in range(draws):
        f = stream.next_fraction()
        assert type(f) is Fraction
        assert f == Fraction(twin.next_int(-MAX_NUM, MAX_NUM),
                             twin.next_int(1, MAX_DEN))
    assert sum(s is stream for s in calls) == 2 * draws


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
    real draws; then it draws its seed's own values."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def next_u64(self):
        if self.script:
            self._counter += 1
            return self.script.pop(0)
        return super().next_u64()


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


def _refuse_draws(self):
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
    monkeypatch.setattr(RandomStream, "next_u64", _refuse_draws)
    bound = VALUES ** 3 - nonzero
    with pytest.raises(ValueError, match=rf"outside \[0, {bound}\]"):
        RandomStream(15).distinct_triples(count, nonzero=nonzero)
    assert RandomStream(15).distinct_triples(0, nonzero=nonzero) == []


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        RandomStream(1).next_int(3, 2)


def test_mix64_is_stable():
    # pinned outputs guard the mixing constants against accidental edits
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(2) == 15839785061582574730
