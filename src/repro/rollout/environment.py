"""Simulated environments and trajectory fabrication.

Two responsibilities:

* :class:`SimulatedEnvironment` plays the role of the external code sandbox /
  rule-based verifier: it samples per-turn interaction latencies and scores
  completed trajectories with a rule-based reward (§8: "rule-based reward
  function ... on both tasks").
* :class:`TrajectoryFactory` turns prompts into in-flight trajectories with
  pre-sampled response lengths and turn schedules, so that every system
  replays exactly the same workload when given the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..types import Prompt, Trajectory
from ..workload.datasets import TaskSpec
from .generation import SequenceState, TurnSchedule


@dataclass
class SimulatedEnvironment:
    """External environment: latency sampling and rule-based rewards."""

    task: TaskSpec
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # -- latency ------------------------------------------------------------
    def sample_interaction_latency(self, size: int = 1) -> np.ndarray:
        """Latency of ``size`` environment calls (seconds)."""
        return self.task.env_latency.sample(self._rng, size)

    # -- reward -------------------------------------------------------------
    def score(self, trajectory: Trajectory) -> float:
        """Rule-based reward in {-1, +1}.

        The probability of solving a problem decreases with its difficulty and
        increases mildly with the amount of reasoning produced (longer
        chains-of-thought help on hard problems) — enough structure for the
        GRPO substrate to have signal without pretending to verify real math.
        """
        solve_prob = solve_probability(
            trajectory.prompt.difficulty, trajectory.generated_tokens
        )
        solved = self._rng.random() < solve_prob
        return 1.0 if solved else -1.0


def solve_probability(difficulty: float, generated_tokens: int) -> float:
    """Probability that a response of ``generated_tokens`` solves the prompt.

    A plain-float clamp to [0.02, 0.98]: scoring runs once per trajectory, so
    a numpy call here would cost more than the arithmetic it wraps.
    """
    length_bonus = 0.1 * min(1.0, generated_tokens / 8192.0)
    return min(max(0.85 - 0.7 * difficulty + length_bonus, 0.02), 0.98)


@dataclass
class TrajectoryFactory:
    """Builds trajectories + turn schedules from prompts, deterministically."""

    task: TaskSpec
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _next_traj_id: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def make(self, prompts: Sequence[Prompt], weight_version: int = 0,
             start_time: float = 0.0) -> List[SequenceState]:
        """Create one sequence state (trajectory + schedule) per prompt."""
        if not prompts:
            return []
        difficulties = [p.difficulty for p in prompts]
        lengths = self.task.length_dist.sample(self._rng, len(prompts), difficulty=difficulties)
        states: List[SequenceState] = []
        for prompt, total_tokens in zip(prompts, lengths):
            schedule = self._make_schedule(prompt, int(total_tokens))
            trajectory = Trajectory(
                traj_id=self._next_traj_id,
                prompt=prompt,
                target_tokens=schedule.total_tokens,
                weight_version=weight_version,
                start_time=start_time,
            )
            self._next_traj_id += 1
            states.append(SequenceState(trajectory=trajectory, schedule=schedule))
        return states

    def _make_schedule(self, prompt: Prompt, total_tokens: int) -> TurnSchedule:
        total_tokens = max(total_tokens, 1)
        if not prompt.multi_turn or prompt.max_turns <= 1:
            return TurnSchedule.single_turn(total_tokens)
        # Number of tool calls grows with difficulty (harder bugs need more
        # debugging steps), capped at the task's turn budget.
        max_turns = prompt.max_turns
        mean_turns = 1.0 + difficulty_to_turns(prompt.difficulty, max_turns)
        num_turns = int(np.clip(self._rng.poisson(mean_turns) + 1, 1, max_turns))
        # Split the response tokens across turns with a Dirichlet draw so turn
        # lengths are uneven (early exploration short, final answer longer).
        shares = self._rng.dirichlet(np.full(num_turns, 1.5))
        segments = np.maximum(1, np.round(shares * total_tokens)).astype(int)
        # Environment latency after every turn except the last one.
        latencies = self.task.env_latency.sample(self._rng, num_turns)
        latencies[-1] = 0.0
        return TurnSchedule(segments=list(segments), env_latencies=list(latencies))


def difficulty_to_turns(difficulty: float, max_turns: int) -> float:
    """Expected extra tool calls for a problem of the given difficulty."""
    if not 0 <= difficulty <= 1:
        raise ValueError("difficulty must be in [0, 1]")
    if max_turns <= 1:
        return 0.0
    return difficulty * (max_turns - 1) * 0.6
