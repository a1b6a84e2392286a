"""Prompt templates over synthetic token ids.

A prompted sequence frames the content as

    [instruction] [modality marker] content... [SEP] [summary marker] [RET]

with the retrieval token always last; its hidden state is the embedding.
Ids 0..63 are reserved for framing tokens so corpus vocabularies can never
collide with them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, LengthError
from .tasks import TASKS

RESERVED_IDS = 64

RET_TOKEN_ID = 1
SEP_TOKEN_ID = 2
# candidates get one fixed no-op instruction instead of the task instruction
CANDIDATE_INSTR_ID = 3

# one instruction id per task type
INSTRUCTION_IDS = {task: 8 + i for i, task in enumerate(TASKS)}

MODALITY_MARKERS = {"text": 24, "image": 25, "image_text": 26}
SUMMARY_MARKERS = {"text": 32, "image": 33, "image_text": 34}


@dataclass(frozen=True)
class TokenSequence:
    """Token ids of one prompt; the last id is always [RET]."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if not self.ids:
            raise ContractError("token sequence is empty")
        if self.ids[-1] != RET_TOKEN_ID:
            raise ContractError("retrieval token must be the last position")

    def __len__(self) -> int:
        return len(self.ids)


def assemble_prompt(item, side: str, max_seq: int | None = None) -> TokenSequence:
    """Frame a query Sample or a Candidate into an encoder-ready sequence.

    Queries carry their task's instruction id; candidates carry the fixed
    no-op instruction. ``item`` needs ``tokens`` and ``modality`` fields, and
    ``task`` for the query side. Content token order is preserved (mixed
    items are rendered image tokens first).
    """
    if side == "query":
        instr = INSTRUCTION_IDS[item.task]
    elif side == "candidate":
        instr = CANDIDATE_INSTR_ID
    else:
        raise ContractError(f"side must be 'query' or 'candidate', got {side!r}")
    modality = item.modality
    if modality not in MODALITY_MARKERS:
        raise ContractError(f"unknown modality {modality!r}")
    ids = (
        instr,
        MODALITY_MARKERS[modality],
        *item.tokens,
        SEP_TOKEN_ID,
        SUMMARY_MARKERS[modality],
        RET_TOKEN_ID,
    )
    if max_seq is not None and len(ids) > max_seq:
        raise LengthError(
            f"prompted sequence of {len(ids)} tokens exceeds max_seq {max_seq}"
        )
    return TokenSequence(ids)
