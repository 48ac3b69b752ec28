"""Determinism fixture: only blessed patterns — zero findings."""

import random

import numpy as np


def seeded_rng(seed: int):
    return random.Random(seed)


def seeded_np(seed: int):
    return np.random.default_rng(seed)


def derived_draw(rng):
    return rng.random()


def explicit_state(rng, items):
    return rng.sample(items, 2)
