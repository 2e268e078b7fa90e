"""SplitMix64 streams: pinned draws, and bounds past 2^64."""

import signal
from contextlib import contextmanager

from polylogp.rng import SplitMix64


@contextmanager
def deadline(seconds):
    """Raise TimeoutError if the block runs longer than ``seconds``."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_small_bound_draws_are_pinned():
    # recorded before multi-word draws existed: bounds <= 2^64 keep their stream
    rng = SplitMix64(20260809)
    assert [rng.below(b) for b in (7, 13**2, 5**6, 2**64, 3**40)] == [
        0, 132, 8006, 13743045787026430035, 10797139455490457707,
    ]
    rng = SplitMix64(0)
    assert [rng.below(10) for _ in range(5)] == [5, 0, 9, 4, 7]


def test_bound_of_two_to_the_64_uses_one_word():
    a, b = SplitMix64(3), SplitMix64(3)
    assert [a.below(2**64) for _ in range(4)] == [b.next_u64() for _ in range(4)]


def test_bounds_past_two_to_the_64_terminate_and_cover_the_range():
    rng = SplitMix64(1)
    for bound in (2**64 + 1, 2**65, 13**18, 7**40):
        with deadline(5):
            draws = [rng.below(bound) for _ in range(50)]
        assert all(0 <= x < bound for x in draws)
        if bound >= 2**65:
            assert max(draws) >= 2**64  # the high words are used
