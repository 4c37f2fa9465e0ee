"""Byte-mutated inputs through ``cli.main``, in process: every command either
succeeds or fails as a usage error (exit 2) with a message and no traceback,
and a failed command leaves only its inputs behind.  A mutated checkpoint
always fails (exit 2), since its sha256 covers every byte.

Five small valid inputs are mutated: the train CSV (``prepare-vocab``); the
eval CSV, the vocabulary and a tiny checkpoint (``evaluate``); and a config
file (``gen-synthetic --config``, with the sizes on the command line).  A
mutation truncates the file, flips one bit, inserts a ``0xff``, NUL or CR
byte, prepends a UTF-8 byte-order mark, repeats one line or empties the
file.  On exit 2 the message names the mutated file.

Where the format fixes the code, it is pinned (``PINNED``).  An inserted
``0xff`` is not UTF-8, which the text reader refuses.  A prepended byte-order
mark is read as part of the first line: it spoils a CSV header or a config
key, and it changes the vocabulary's hash, which the checkpoint pins.  An
emptied CSV has no header and an emptied vocabulary another hash.  All of
these exit 2.  An emptied config file sets nothing and exits 0, since
``gen-synthetic`` takes its sizes from the command line.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ccnrank import cli, corpus, models, vocab as vb
from ccnrank.cli import EXIT_OK, EXIT_USAGE

CONFIG = b"seed = 3\ntopics = 4\nkeywords_per_topic = 3\nfiller_vocab_size = 20\ncontext_turns = 2\n"
TEXT_INPUTS = ("train.csv", "eval.csv", "vocab.txt", "config.txt")
# (mutation kind, text input) -> the exit code its format fixes
PINNED = {
    **{(kind, target): EXIT_USAGE for kind in ("0xff", "bom") for target in TEXT_INPUTS},
    **{("empty", target): EXIT_USAGE for target in ("train.csv", "eval.csv", "vocab.txt")},
    ("empty", "config.txt"): EXIT_OK,
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid inputs' bytes by file name, written once for the module."""
    root = tmp_path_factory.mktemp("valid")
    train, evals, _ = corpus.generate_splits(5, 12, 2, 0, corpus.SyntheticConfig(context_turns=2))
    corpus.write_train(train, root / "train.csv")
    corpus.write_eval(evals, root / "eval.csv")
    vocabulary = vb.build_vocab(train)
    vb.save_vocab(vocabulary, root / "vocab.txt")
    config = models.ModelConfig("ccn_lstm", embedding_dim=4, hidden_size=4, max_len=16, k=2)
    model, _ = models.build_model(config, vocabulary)
    models.save_checkpoint(model, root / "m.ckpt")
    (root / "config.txt").write_bytes(CONFIG)
    return {p.name: p.read_bytes() for p in root.iterdir()}


def command(target, d):
    """The input files ``target``'s command reads, and its arguments in directory ``d``."""
    if target == "train.csv":
        return ["train.csv"], ["prepare-vocab", "--train", f"{d}/train.csv", "--out", f"{d}/out.vocab"]
    if target == "config.txt":
        return ["config.txt"], ["gen-synthetic", "--config", f"{d}/config.txt", "--train", "4", "--eval", "2",
                                "--out", f"{d}/data"]
    return ["m.ckpt", "vocab.txt", "eval.csv"], [
        "evaluate", "--models", f"{d}/m.ckpt", "--vocab", f"{d}/vocab.txt", "--eval", f"{d}/eval.csv",
        "--manifest", f"{d}/manifest.json"]


@st.composite
def mutations(draw, blob):
    """(mutation kind, the mutated bytes)."""
    kind = draw(st.sampled_from(["truncate", "flip", "0xff", "nul", "cr", "bom", "repeat", "empty"]))
    if kind == "empty":
        return kind, b""
    if kind == "bom":
        return kind, b"\xef\xbb\xbf" + blob
    if kind == "repeat":
        lines = blob.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        return kind, b"".join(lines[: i + 1] + lines[i:])
    i = draw(st.integers(0, len(blob) - 1))
    if kind == "truncate":
        return kind, blob[:i]
    if kind == "flip":
        return kind, blob[:i] + bytes([blob[i] ^ (1 << draw(st.integers(0, 7)))]) + blob[i + 1 :]
    return kind, blob[:i] + {"0xff": b"\xff", "nul": b"\0", "cr": b"\r"}[kind] + blob[i:]


@pytest.mark.parametrize("target", ["train.csv", "eval.csv", "vocab.txt", "m.ckpt", "config.txt"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_exits_0_or_2_without_a_traceback(inputs, target, data):
    kind, mutated = data.draw(mutations(inputs[target]), label="mutated")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        names, argv = command(target, d)
        for name in names:
            (d / name).write_bytes(mutated if name == target else inputs[name])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if target == "m.ckpt":
            assert rc == EXIT_USAGE, err.getvalue()
        elif (kind, target) in PINNED:
            assert rc == PINNED[kind, target], (kind, err.getvalue())
        else:
            assert rc in (EXIT_OK, EXIT_USAGE), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == EXIT_USAGE:
            assert err.getvalue().startswith("error: ")
            assert str(d / target) in err.getvalue()
            assert sorted(p.name for p in d.iterdir()) == sorted(names)
