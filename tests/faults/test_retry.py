"""RetryPolicy: deterministic backoff and attempt caps."""

import errno

import pytest

from repro.faults import RetryPolicy


def test_delay_schedule_is_exponential_and_capped():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.4)
    assert policy.delay(4) == pytest.approx(0.5)  # capped
    assert policy.delay(10) == pytest.approx(0.5)


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay=0.1, jitter=0.25)
    twin = RetryPolicy(base_delay=0.1, jitter=0.25)
    for attempt in range(1, 6):
        d = policy.delay(attempt)
        assert d == twin.delay(attempt)  # same seed, same schedule
        base = min(0.1 * 2.0 ** (attempt - 1), policy.max_delay)
        assert base <= d <= base * 1.25
    other = RetryPolicy(base_delay=0.1, jitter=0.25, seed=1)
    assert any(other.delay(a) != policy.delay(a) for a in range(1, 6))


def test_delay_rejects_nonpositive_attempt():
    with pytest.raises(ValueError):
        RetryPolicy().delay(0)


def test_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1)


def test_call_retries_then_succeeds():
    policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0)
    attempts = []
    retried = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError(errno.ENOSPC, "full")
        return "ok"

    result = policy.call(
        flaky, on_retry=lambda a, exc, d: retried.append((a, d))
    )
    assert result == "ok"
    assert len(attempts) == 3
    assert [a for a, _ in retried] == [1, 2]


def test_call_reraises_after_budget():
    policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0)
    calls = []

    def always_fails():
        calls.append(1)
        raise OSError(errno.EIO, "still broken")

    with pytest.raises(OSError) as excinfo:
        policy.call(always_fails)
    assert excinfo.value.errno == errno.EIO
    assert len(calls) == 2


def test_call_does_not_retry_unlisted_exceptions():
    policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0)
    calls = []

    def typo():
        calls.append(1)
        raise KeyError("not an OSError")

    with pytest.raises(KeyError):
        policy.call(typo)
    assert len(calls) == 1


def test_with_attempts():
    policy = RetryPolicy(max_attempts=3)
    assert policy.with_attempts(None) is policy
    assert policy.with_attempts(3) is policy
    bumped = policy.with_attempts(5)
    assert bumped.max_attempts == 5
    assert bumped.base_delay == policy.base_delay
