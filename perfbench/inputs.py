"""Workload inputs, all derived from the workload seed.

The corpus is the synthetic PolitiFact-style News-HSN at scale 0.25
(3,514 articles, 908 creators, 76 subjects); the seed picks the corpus
and the train/test split. ``repro.data`` only makes inputs here and is
never timed.

Run as a script, this module trains and saves the checkpoint that the
session and HTTP workloads serve::

    python3 perfbench/inputs.py --seed 3 --out DIR

It runs in its own process so that the training tape's memory does not
count in the measuring process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

CORPUS_SCALE = 0.25
#: 1 in SPLIT_FOLDS articles/creators/subjects is held out for testing.
SPLIT_FOLDS = 5
#: Epochs of the checkpoint the serving workloads load. Serving cost does
#: not depend on how long the weights were trained, so a short fit keeps
#: input preparation cheap; every other setting is the default config.
CHECKPOINT_EPOCHS = 2


def corpus(seed: int):
    """``(dataset, split)`` for a workload seed."""
    from repro import generate_dataset
    from repro.graph.sampling import tri_splits

    dataset = generate_dataset(scale=CORPUS_SCALE, seed=seed)
    split = next(
        tri_splits(
            sorted(dataset.articles),
            sorted(dataset.creators),
            sorted(dataset.subjects),
            k=SPLIT_FOLDS,
            seed=seed,
        )
    )
    return dataset, split


class NewArticles:
    """An endless, seeded stream of unseen articles with unique texts.

    Article ``i`` takes the creator, subjects and text of a corpus article
    (in a seeded order) and appends a word no earlier article used, so no
    two texts are equal and the session's feature cache misses by content.
    """

    def __init__(self, bases: List[dict], seed: int, prefix: str):
        import numpy as np

        self._bases = bases
        self._order = np.random.default_rng(seed).permutation(len(bases)).tolist()
        self._prefix = prefix
        self._next = 0

    def take(self, count: int):
        from repro.serve import ArticleRequest

        out = []
        for i in range(self._next, self._next + count):
            base = self._bases[self._order[i % len(self._order)]]
            out.append(
                ArticleRequest(
                    article_id=f"{self._prefix}{i}",
                    text=f"{base['text']} {self._prefix}{i}",
                    creator_id=base["creator_id"],
                    subject_ids=list(base["subject_ids"]),
                )
            )
        self._next += count
        return out


def load_bases(path: Path) -> List[dict]:
    return json.loads(Path(path).read_text())


def prepare_checkpoint(seed: int, out: Path) -> None:
    """Fit the default config briefly on the seed's corpus and save it."""
    from repro import FakeDetector, FakeDetectorConfig

    dataset, split = corpus(seed)
    detector = FakeDetector(FakeDetectorConfig(epochs=CHECKPOINT_EPOCHS))
    detector.fit(dataset, split)
    detector.save(out / "ckpt")
    bases = [
        {
            "text": a.text,
            "creator_id": a.creator_id,
            "subject_ids": list(a.subject_ids),
        }
        for _, a in sorted(dataset.articles.items())
    ]
    (out / "bases.json").write_text(json.dumps(bases))


def run_prepare(seed: int, out: Path, src: Path) -> None:
    """Run :func:`prepare_checkpoint` in a child process and wait for it."""
    import subprocess

    out.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
         "--out", str(out), "--src", str(src)],
        check=True,
        timeout=170,
        stdout=subprocess.DEVNULL,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    prepare_checkpoint(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
