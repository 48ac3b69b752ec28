"""Determinism fixture: every function below is a violation.

Parsed, never imported — ``tests/test_determinism.py`` reads the AST alone.
"""

import datetime
import os
import random
import time
import uuid

import numpy as np
from time import perf_counter as pc


def epoch_stamp():
    return time.time()


def now_stamp():
    return datetime.datetime.now()


def aliased_clock():
    return pc()


def entropy_id():
    return uuid.uuid4()


def global_draw():
    return random.random()


def numpy_global_draw(values):
    np.random.shuffle(values)
    return values


def unseeded_rng():
    return random.Random()


def env_default():
    return os.getenv("REPRO_MODE")


def env_subscript():
    return os.environ["REPRO_MODE"]
