"""The benchmark's three workloads over the conics800 public functions.

Each workload is built from a seed string (its set-up makes every input
the library sees) and then runs iterations; `iterate` returns the list of
problems it found in that iteration's outputs, empty when every output
matches the reference recorded in reference.json. Seed draws use
`random.Random`, whose streams do not depend on the numpy version.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

# Library functions are looked up on their modules at call time, so
# the tracer's wrappers see the benchmark's own calls too.
from conics800 import census, golay, leech, report

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FRAMES = ("lex", "0", "1", "2", "3")

# A wall-clock budget count_disjoint_16 cannot reach here, so the count
# is always exhaustive.
CLIQUE_BUDGET_S = 1e6


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(rep: dict) -> str:
    """The report's bytes once its timing fields are stripped."""
    return sha256_text(report.serialize(report.strip_volatile(rep)))


def frame_arg(frame: str) -> int | None:
    return None if frame == "lex" else int(frame)


def true_products(frame: str, threads: int) -> np.ndarray:
    """The true products of the 800 conics of one frame."""
    code, _ = golay.normalize_frame(golay.build_golay(), frame_arg(frame))
    vectors, _ = leech.census(code)
    conics = census.find_conics(vectors, threads=threads)
    products, _ = census.intersection_data(conics)
    return products


class Certify:
    """`verify-all` (heavy) or `verify-all --skip-heavy` at seed-drawn frames."""

    def __init__(self, seed: str, threads: int, heavy: bool, reference: dict):
        self.threads = threads
        self.heavy = heavy
        self.expected = reference["certify"]["full" if heavy else "light"]
        self.frames = random.Random(seed).sample(FRAMES, len(FRAMES))
        self.done = 0

    def iterate(self) -> list[str]:
        frame = self.frames[self.done % len(self.frames)]
        self.done += 1
        state = report.Pipeline(octad_choice=frame, threads=self.threads)
        rep, overall = report.run_pipeline(state, "ns", heavy=self.heavy)
        problems = []
        if not overall:
            problems.append(f"frame {frame}: overall is False")
        if report_digest(rep) != self.expected[frame]:
            problems.append(f"frame {frame}: stripped report digest differs")
        return problems


class CliqueCensus:
    """Exhaustive 16-clique count under a seed-drawn vertex relabeling."""

    def __init__(self, seed: str, threads: int, reference: dict):
        self.rng = random.Random(seed)
        self.products = true_products("lex", threads)
        self.expected = reference["clique"]

    def iterate(self) -> list[str]:
        order = np.array(self.rng.sample(range(len(self.products)), len(self.products)))
        masks = census.disjointness_masks(self.products[np.ix_(order, order)])
        count, exhausted = census.count_disjoint_16(masks, budget_seconds=CLIQUE_BUDGET_S)
        problems = []
        if count != self.expected["count"]:
            problems.append(f"clique count {count}, reference {self.expected['count']}")
        if not exhausted:
            problems.append("clique search did not exhaust")
        return problems


WORKLOADS = {
    "certify_full": lambda seed, threads, ref: Certify(seed, threads, True, ref),
    "certify_light": lambda seed, threads, ref: Certify(seed, threads, False, ref),
    "clique_census": CliqueCensus,
}
