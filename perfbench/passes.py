"""The pass rule shared by the worker's pass loop and the cli workload's."""

from __future__ import annotations

MIN_PASSES = 3            # each op's time is its median over these passes


def another_pass(done: int, elapsed: float, seconds: float,
                 minimum: int = MIN_PASSES) -> bool:
    """Whether to start one more pass after `done` passes took `elapsed`
    seconds: always below `minimum`, past it only if the next pass is
    expected to end within `seconds`."""
    return done < minimum or elapsed * (done + 1) / done <= seconds
