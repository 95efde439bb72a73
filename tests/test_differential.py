"""Differential test against a frozen corpus of fuzzed command runs.

A hundred seeded random models each take forty random commands. After every
command, the serialized model and the command's diagnostics are hashed; the
test compares these digests with `differential_corpus.json`, recorded from a
known-good build. Any change in an edit's effect, in constraint order or in
a diagnostic shows up as the first diverging (model, command) pair.

Regenerate the fixture only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_differential.py

It prints how many steps changed and which ones (model and command number)
before it writes the fixture.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from feather.commands import execute
from feather.model import ModelError
from feather.serializer import serialize_declarations

from conftest import random_command, random_model

FIXTURE = Path(__file__).with_name("differential_corpus.json")
MODELS = 100
COMMANDS = 40
SEED = 20190316


def corpus_steps():
    """(model number, the model after a command, the command's diagnostics)
    for each command of the corpus, in order."""
    rng = random.Random(SEED)
    for m in range(MODELS):
        model = random_model(rng, max_features=25, max_attrs=4)
        for _ in range(COMMANDS):
            cmd = random_command(rng, model)
            model, results = execute(model, cmd)
            yield m, model, results


def corpus_digests() -> list:
    """Per model, one short sha256 per command of (model text, diagnostics)."""
    out = [[] for _ in range(MODELS)]
    for m, model, results in corpus_steps():
        text = serialize_declarations(model) + "\0" + "\n".join(
            f"{severity}: {message}" for severity, message in results)
        out[m].append(hashlib.sha256(text.encode()).hexdigest()[:16])
    return out


def test_frozen_corpus_is_unchanged():
    expected = [line.split() for line in json.loads(FIXTURE.read_text())]
    actual = corpus_digests()
    assert len(actual) == len(expected)
    for m, (want, got) in enumerate(zip(expected, actual)):
        diverged = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b), None)
        assert diverged is None, f"model {m} diverges at command {diverged + 1}"


def test_no_model_error_text_reaches_a_diagnostic(monkeypatch):
    # a ModelError is the model guarding its integrity; a command reports
    # in its own words, so the model's text never shows
    sentinel = "<model error text>"
    monkeypatch.setattr(ModelError, "__str__", lambda self: sentinel)
    leaks = [(m, message) for m, _model, results in corpus_steps()
             for _severity, message in results if sentinel in message]
    assert leaks == []


if __name__ == "__main__":
    old = [line.split() for line in json.loads(FIXTURE.read_text())]
    new = corpus_digests()
    changed = [f"model {m} command {i + 1}" for m, (want, got) in enumerate(zip(old, new))
               for i, (a, b) in enumerate(zip(want, got)) if a != b]
    print(f"{len(changed)} of {MODELS * COMMANDS} steps changed"
          + "".join(f"\n  {step}" for step in changed))
    FIXTURE.write_text(json.dumps([" ".join(steps) for steps in new], indent=0) + "\n")
