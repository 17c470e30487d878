"""CandidateStream: the one per-insert candidate stream, checked against
``choice_blocks`` and across ``state_dict``/``from_state`` round trips.

A small ``rng_block`` (7) makes every size below cross block edges:
the bounded stream must hold exactly ``choice_blocks(m)``'s rows (short
last block included), the unbounded one whole blocks only.
"""

import json

import numpy as np
import pytest

from repro.core.engine import CandidateStream, choice_blocks
from repro.core.ring import RingSpace
from repro.core.torus import TorusSpace

BLOCK = 7
D = 3
SPACES = {
    "ring": RingSpace.random(50, seed=1),
    "torus": TorusSpace.random(50, seed=2),
}
CASES = [(kind, part) for kind in SPACES for part in (False, True)]
IDS = [f"{kind}-{'partitioned' if part else 'plain'}" for kind, part in CASES]


def _stream(kind, partitioned, seed=5, total=None):
    return CandidateStream(SPACES[kind], np.random.default_rng(seed), D,
                           partitioned=partitioned, rng_block=BLOCK,
                           total=total)


def _reference(kind, partitioned, m, seed=5):
    """``choice_blocks(m)`` concatenated, plus the generator it left."""
    rng = np.random.default_rng(seed)
    blocks = list(choice_blocks(SPACES[kind], rng, m, D,
                                partitioned=partitioned, rng_block=BLOCK))
    if not blocks:
        return np.empty((0, D), dtype=np.int64), np.empty(0), rng
    return (np.concatenate([b for b, _ in blocks]),
            np.concatenate([u for _, u in blocks]), rng)


def _assert_rows(stream, cands, us):
    stop = stream.drawn
    assert np.array_equal(stream.cands[:stop], cands[:stop])
    assert np.array_equal(stream.us[:stop], us[:stop])


@pytest.mark.parametrize("kind,partitioned", CASES, ids=IDS)
@pytest.mark.parametrize("m", [0, 1, 6, 7, 8, 17])
def test_bounded_equals_choice_blocks(kind, partitioned, m):
    stream = _stream(kind, partitioned, total=m)
    stream.ensure(m)
    cands, us, rng = _reference(kind, partitioned, m)
    assert stream.drawn == m
    _assert_rows(stream, cands, us)
    assert stream._rng.bit_generator.state == rng.bit_generator.state
    with pytest.raises(RuntimeError, match="exhausted"):
        stream.ensure(m + 1)


@pytest.mark.parametrize("kind,partitioned", CASES, ids=IDS)
@pytest.mark.parametrize("count", [1, 7, 8, 20])
def test_unbounded_draws_whole_blocks(kind, partitioned, count):
    stream = _stream(kind, partitioned)
    stream.ensure(count)
    full = -(-count // BLOCK) * BLOCK
    cands, us, rng = _reference(kind, partitioned, full)
    assert stream.drawn == full
    _assert_rows(stream, cands, us)
    assert stream._rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("kind,partitioned", CASES, ids=IDS)
@pytest.mark.parametrize("total", [None, 17])
def test_mixed_increments_match_one_call(kind, partitioned, total):
    once = _stream(kind, partitioned, total=total)
    once.ensure(17)
    steps = _stream(kind, partitioned, total=total)
    for count in (0, 1, 1, 3, 2, 7, 8, 15, 14, 17):
        steps.ensure(count)
    assert steps.drawn == once.drawn
    _assert_rows(steps, once.cands, once.us)
    assert steps._rng.bit_generator.state == once._rng.bit_generator.state


@pytest.mark.parametrize("kind,partitioned", CASES, ids=IDS)
@pytest.mark.parametrize("total", [None, 17])
def test_state_roundtrip_continues_identically(kind, partitioned, total):
    ref = _stream(kind, partitioned, total=total)
    ref.ensure(17)
    for consumed in range(15):
        stream = _stream(kind, partitioned, total=total)
        stream.ensure(consumed)
        meta, arrays = stream.state_dict(consumed)
        meta = json.loads(json.dumps(meta))  # checkpoints store it as JSON
        restored = CandidateStream.from_state(SPACES[kind], D, meta, arrays)
        assert restored.total == total and restored.drawn == stream.drawn
        restored.ensure(17)
        end = ref.drawn
        assert restored.drawn == end
        assert np.array_equal(restored.cands[consumed:end],
                              ref.cands[consumed:end])
        assert np.array_equal(restored.us[consumed:end], ref.us[consumed:end])
        assert (restored._rng.bit_generator.state
                == ref._rng.bit_generator.state)
