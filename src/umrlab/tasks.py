"""Task types and modality vocabulary shared by prompts, datagen and eval.

Eight query->candidate task types over three modalities. Task names encode
the two sides: ``it2t`` reads "image+text query to text candidate".
"""

MODALITIES = ("text", "image", "image_text")
MODALITY_CODES = {"text": 0, "image": 1, "image_text": 2}

TASKS = ("t2i", "t2t", "i2t", "i2i", "t2it", "it2t", "it2i", "it2it")

_SIDE_MODALITY = {"t": "text", "i": "image", "it": "image_text"}


def _split(task: str) -> tuple[str, str]:
    q, c = task.split("2")
    return _SIDE_MODALITY[q], _SIDE_MODALITY[c]


QUERY_MODALITY = {task: _split(task)[0] for task in TASKS}
CANDIDATE_MODALITY = {task: _split(task)[1] for task in TASKS}
# each enabled task type is one pseudo-dataset of the corpus
DATASETS = {task: f"ds-{task}" for task in TASKS}
