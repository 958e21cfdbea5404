"""Synthetic datasets standing in for DAPO-Math-17k and the ReTool tasks.

The real evaluation trains on the open DAPO-Math-17k dataset with 2K-token
prompts, 16 responses per prompt (GRPO group size) and, for the tool-calling
task, up to 8 code-sandbox calls per trajectory (§8).  Here we synthesize a
prompt bank with the same structural properties: per-question difficulty that
drives both solve probability and response length, prompt-length variation,
and a multi-turn flag with a turn budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from ..types import Prompt
from .env_latency import EnvLatencyDistribution, CODE_SANDBOX, RULE_BASED_VERIFIER
from .length_dist import LengthDistribution, get_length_distribution


@dataclass(frozen=True)
class TaskSpec:
    """Describes one RL post-training task (math or tool-calling)."""

    name: str
    task_type: str  # "math" (single-turn) or "tool" (multi-turn)
    length_dist: LengthDistribution
    env_latency: EnvLatencyDistribution
    max_prompt_tokens: int = 2048
    max_response_tokens: int = 16384
    group_size: int = 16
    max_turns: int = 1

    def __post_init__(self) -> None:
        if self.task_type not in ("math", "tool"):
            raise ValueError("task_type must be 'math' or 'tool'")
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if self.max_turns <= 0:
            raise ValueError("max_turns must be positive")

    @property
    def multi_turn(self) -> bool:
        return self.task_type == "tool"


def math_task(model_size: str = "7B") -> TaskSpec:
    """Single-turn mathematical-reasoning task (DAPO-Math-17k style)."""
    return TaskSpec(
        name=f"dapo-math-{model_size}",
        task_type="math",
        length_dist=get_length_distribution("math", model_size),
        env_latency=RULE_BASED_VERIFIER,
        max_turns=1,
    )


def tool_task(model_size: str = "7B", max_turns: int = 8) -> TaskSpec:
    """Multi-turn tool-calling task (ReTool style, code sandbox, <=8 calls)."""
    return TaskSpec(
        name=f"retool-{model_size}",
        task_type="tool",
        length_dist=get_length_distribution("tool", model_size),
        env_latency=CODE_SANDBOX,
        max_turns=max_turns,
    )


@dataclass
class PromptDataset:
    """A bank of prompts with GRPO group replication.

    ``sample_batch(num_prompts)`` returns ``num_prompts * group_size`` prompts
    — 512 prompts x 16 responses = the paper's 8192-trajectory global batch.
    """

    task: TaskSpec
    num_questions: int = 17_000
    seed: int = 0
    _difficulties: np.ndarray = field(init=False, repr=False)
    _prompt_lengths: np.ndarray = field(init=False, repr=False)
    _next_prompt_id: int = field(default=0, init=False, repr=False)
    _next_group_id: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_questions <= 0:
            raise ValueError("num_questions must be positive")
        rng = np.random.default_rng(self.seed)
        # Beta(2, 2) difficulty: most questions are mid-difficulty, some easy/hard.
        self._difficulties = rng.beta(2.0, 2.0, self.num_questions)
        lengths = rng.lognormal(np.log(450.0), 0.6, self.num_questions)
        self._prompt_lengths = np.clip(lengths, 64, self.task.max_prompt_tokens).astype(np.int64)

    def __len__(self) -> int:
        return self.num_questions

    def difficulty(self, question_index: int) -> float:
        return float(self._difficulties[question_index % self.num_questions])

    def sample_batch(self, num_prompts: int, rng: np.random.Generator,
                     limit: Optional[int] = None) -> List[Prompt]:
        """Sample ``num_prompts`` questions, each replicated ``group_size`` times.

        With ``limit`` only the first ``limit`` prompts are built, equal to
        ``sample_batch(num_prompts, rng)[:limit]``: the RNG draw and the
        prompt and group ids advance as if every group were built.
        """
        if num_prompts <= 0:
            raise ValueError("num_prompts must be positive")
        group_size = self.task.group_size
        total = num_prompts * group_size
        if limit is None:
            limit = total
        elif not 0 < limit <= total:
            raise ValueError(f"limit must be in [1, {total}]")
        indices = rng.integers(0, self.num_questions, num_prompts)
        kept = indices[: -(-limit // group_size)]
        lengths = self._prompt_lengths[kept].tolist()
        difficulties = self._difficulties[kept].tolist()
        multi_turn, max_turns = self.task.multi_turn, self.task.max_turns
        prompts: List[Prompt] = []
        prompt_id, group_id = self._next_prompt_id, self._next_group_id
        for tokens, difficulty in zip(lengths, difficulties):
            for _ in range(min(group_size, limit - len(prompts))):
                prompts.append(
                    Prompt(
                        prompt_id=prompt_id,
                        group_id=group_id,
                        prompt_tokens=tokens,
                        difficulty=difficulty,
                        multi_turn=multi_turn,
                        max_turns=max_turns,
                    )
                )
                prompt_id += 1
            group_id += 1
        self._next_prompt_id += total
        self._next_group_id += num_prompts
        return prompts

    def iter_batches(self, num_prompts: int, rng: np.random.Generator) -> Iterator[List[Prompt]]:
        """Endless stream of prompt batches (the prompt pool never runs dry)."""
        while True:
            yield self.sample_batch(num_prompts, rng)

    def sample_response_lengths(self, prompts: List[Prompt], rng: np.random.Generator) -> np.ndarray:
        """Draw the eventual response length for each prompt in ``prompts``."""
        difficulties = [p.difficulty for p in prompts]
        return self.task.length_dist.sample(rng, len(prompts), difficulty=difficulties)
