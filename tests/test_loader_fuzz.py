"""Loader fuzz: a checkpoint, an index or a corpus's meta.json that was
truncated or had one byte flipped either loads or raises FormatError with a
byte offset inside the damaged file, never another error."""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umrlab.checkpoint import load_checkpoint, save_checkpoint
from umrlab.datagen import Corpus, CorpusSpec, generate_corpus, vocab_size_for
from umrlab.encoder import Encoder, EncoderConfig, prune
from umrlab.errors import FormatError
from umrlab.retrieval import build_index, load_index, save_index

SPEC = CorpusSpec(
    n_concepts=6, tasks=("t2t", "i2t"), text_vocab_size=20, image_vocab_size=20,
    n_t=3, n_i=4, distractors=1, test_fraction=0.25,
)
ENC = EncoderConfig(vocab_size=vocab_size_for(SPEC), d_model=4, n_heads=2, n_layers=2, max_seq=16, k=1)

# each fuzzed file, relative to the artifact directory, and the load that reads it
TARGETS = {
    "enc.ckpt": lambda root: load_checkpoint(root / "enc.ckpt"),
    "pruned.ckpt": lambda root: load_checkpoint(root / "pruned.ckpt"),
    "pool.idx": lambda root: load_index(root / "pool.idx"),
    "corpus/meta.json": lambda root: Corpus.load(root / "corpus"),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A saved corpus, a checkpoint, a pruned one and an index of the
    corpus; returns the pristine directory and a scratch copy to mutate."""
    root = tmp_path_factory.mktemp("fuzz")
    pristine = root / "pristine"
    corpus = generate_corpus(SPEC, seed=1)
    corpus.save(pristine / "corpus")
    encoder = Encoder.init(ENC, seed=0)
    save_checkpoint(pristine / "enc.ckpt", encoder)
    save_checkpoint(pristine / "pruned.ckpt", prune(encoder, 1))
    save_index(build_index(encoder, corpus.all_candidates()), pristine / "pool.idx")
    return pristine, root / "work"


@pytest.mark.parametrize("target", list(TARGETS))
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_format_error(artifacts, target, data):
    pristine, work = artifacts
    shutil.copytree(pristine, work, dirs_exist_ok=True)
    blob = (pristine / target).read_bytes()
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:at]
    else:
        mask = data.draw(st.integers(1, 255), label="xor mask")
        damaged = blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]
    (work / target).write_bytes(damaged)
    try:
        TARGETS[target](work)
    except FormatError as err:
        assert err.offset is not None and 0 <= err.offset <= len(damaged)
