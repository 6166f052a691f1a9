"""Seeded inputs of the workloads, and the expected outputs derived from them.

Everything here is a pure function of the workload seed.  The workloads
call it during set-up to make what they feed the program; the output checks
call it again, independently of anything the program returned, to decide
what the program should have delivered.
"""

from __future__ import annotations

import numpy as np

from repro.kiosk import Actor, SyntheticScene

__all__ = [
    "PAYLOAD_BYTES",
    "POOL_SIZE",
    "REPLAY_FRAMES",
    "NOISE_SIGMA",
    "payload_pool",
    "payload",
    "kiosk_scene",
    "replay_frames",
    "ground_truth",
]

#: random bytes per stripe/bounded payload (plus an 8-byte timestamp header).
PAYLOAD_BYTES = 64
#: distinct payload bodies; timestamp ``ts`` carries body ``ts % POOL_SIZE``.
POOL_SIZE = 1024
#: camera frames rendered during set-up and replayed cyclically.
REPLAY_FRAMES = 32
#: per-pixel sensor noise of the rendered frames.
NOISE_SIGMA = 2.0

# Shirt colours far from the 96..127 background in every channel mix.
_PALETTE = ((200, 40, 40), (40, 60, 210), (30, 190, 60), (220, 200, 30))


def _seed32(seed: int) -> int:
    return int(seed) & 0xFFFFFFFF


def payload_pool(seed: int) -> list[bytes]:
    """The ``POOL_SIZE`` payload bodies of a stripe or bounded run."""
    raw = np.random.default_rng([_seed32(seed), 1]).bytes(POOL_SIZE * PAYLOAD_BYTES)
    return [
        raw[i * PAYLOAD_BYTES:(i + 1) * PAYLOAD_BYTES] for i in range(POOL_SIZE)
    ]


def payload(pool: list[bytes], ts: int) -> bytes:
    """The item put at timestamp ``ts``: its timestamp, then a pool body."""
    return ts.to_bytes(8, "little") + pool[ts % len(pool)]


def kiosk_scene(seed: int) -> SyntheticScene:
    """One customer with a seeded colour, path and entry frame.

    The customer enters a few frames into the replay set, so some frames
    hold nobody and the tracker must report activity only when it starts.
    """
    rng = np.random.default_rng([_seed32(seed), 2])
    actor = Actor(
        color=_PALETTE[int(rng.integers(len(_PALETTE)))],
        start=(float(rng.uniform(40.0, 280.0)), float(rng.uniform(40.0, 200.0))),
        velocity=(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-2.0, 2.0))),
        enters_at=int(rng.integers(2, 8)),
    )
    return SyntheticScene(actors=[actor], noise_sigma=0.0, seed=_seed32(seed))


def replay_frames(seed: int) -> list[np.ndarray]:
    """The ``REPLAY_FRAMES`` camera frames, with seeded sensor noise.

    The noise is drawn here from the workload seed rather than by
    ``SyntheticScene.render``, whose noise follows Python's per-interpreter
    string-hash salt, so the same seed gives the same frames in every run.
    """
    scene = kiosk_scene(seed)
    frames = []
    for t in range(REPLAY_FRAMES):
        clean = scene.render(t, with_noise=False).astype(np.float32)
        noise = np.random.default_rng([_seed32(seed), 3, t]).standard_normal(
            clean.shape, dtype=np.float32
        )
        frames.append(
            np.clip(clean + NOISE_SIGMA * noise, 0, 255).round().astype(np.uint8)
        )
    return frames


def ground_truth(seed: int):
    """``ts -> [(x, y), ...]``: customer centres in the frame shown at ``ts``."""
    scene = kiosk_scene(seed)
    table = [scene.ground_truth(t) for t in range(REPLAY_FRAMES)]
    return lambda ts: table[ts % REPLAY_FRAMES]
