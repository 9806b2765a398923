"""Deterministic synthetic corpus at the published class counts.

Entities are built from the bundled sample's entity stems: two stems
joined and closed by the class morpheme, so the class is readable from
entity morphology alone.  Each entity is set into one of the sample's
text templates, drawn from all classes so that the template does not
give the class away.  Two stems out of thirty per class give 900
candidate entities per class, which keeps thousands of distinct words in
the corpus and keeps vocabulary induction merging for a large target.

Run as a script to write a corpus and print its independent check:

    python3 bench/corpus_gen.py --seed 1 --out corpus.jsonl
"""

from __future__ import annotations

import argparse
import json
import random
from collections import Counter
from pathlib import Path

LABELS = (
    "Medicine/Chemical Name",
    "Common Medical Terms",
    "Disease",
    "Organ",
    "Pharmacological Class",
    "Hormone",
)
CLASS_COUNTS = (1938, 1127, 1098, 1066, 877, 807)
MORPHEMES = ("মাইসিন", "থেরাপি", "রোগ", "তন্ত্র", "ব্লকার", "হরমোন")
PLACEHOLDER = "{E}"
SAMPLE = Path(__file__).resolve().parent.parent / "src/meder/data/sample_corpus.jsonl"


def sample_stems_and_templates(sample_path: Path) -> tuple[list[str], list[str]]:
    """Entity stems (entity minus its class morpheme) and text templates
    (text with the entity replaced by a placeholder) of the sample."""
    stems: set[str] = set()
    templates: set[str] = set()
    for line in sample_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        morpheme = MORPHEMES[LABELS.index(rec["label"])]
        entity = rec["entity"]
        if not entity.endswith(morpheme) or entity not in rec["text"]:
            raise ValueError(f"sample record {rec['id']} does not fit the generator")
        stems.add(entity[: -len(morpheme)])
        templates.add(rec["text"].replace(entity, PLACEHOLDER, 1))
    return sorted(stems), sorted(templates)


def generate(seed: int) -> list[dict]:
    """6913 records in a seeded order; same seed, same records."""
    stems, templates = sample_stems_and_templates(SAMPLE)
    rng = random.Random(seed)
    records = []
    for label, morpheme, count in zip(LABELS, MORPHEMES, CLASS_COUNTS):
        for _ in range(count):
            entity = rng.choice(stems) + rng.choice(stems) + morpheme
            text = rng.choice(templates).replace(PLACEHOLDER, entity)
            records.append({"text": text, "entity": entity, "label": label})
    rng.shuffle(records)
    return [{"id": f"syn{i:05d}", **r} for i, r in enumerate(records)]


def write_jsonl(records: list[dict], path: Path) -> None:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )


def check_file(path: Path) -> dict:
    """Recount a written corpus with plain json, apart from meder.corpus.

    Raises ValueError when class counts, id uniqueness or entity
    containment disagree with the generator's contract.
    """
    counts: Counter = Counter()
    ids: set[str] = set()
    n = 0
    words: set[str] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        n += 1
        counts[rec["label"]] += 1
        ids.add(rec["id"])
        if rec["entity"] not in rec["text"]:
            raise ValueError(f"record {rec['id']}: entity not contained in text")
        words.update(rec["text"].split())
    got = tuple(counts[label] for label in LABELS)
    if got != CLASS_COUNTS or n != sum(CLASS_COUNTS):
        raise ValueError(f"class counts {got} (total {n}) differ from {CLASS_COUNTS}")
    if len(ids) != n:
        raise ValueError(f"{n - len(ids)} duplicate record ids")
    return {"records": n, "class_counts": list(got), "distinct_words": len(words)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    write_jsonl(generate(args.seed), args.out)
    print(json.dumps(check_file(args.out)))


if __name__ == "__main__":
    main()
