"""The three workloads, built from the public STM API.

Each workload is a *rig*: constructing it is the set-up (cluster start,
channel creation and attach, input generation), :meth:`run` drives one
timed run and tears the cluster down, and :meth:`abort` tears down a set-up
that will not be run.  Every rig runs on the thread runtime, so its stages
are threads of this process and share the rig's Python objects.

* ``stripe`` and ``bounded`` — a producer and a consumer thread over one
  channel in one address space (:class:`StreamRig`).
* ``kiosk`` — the Smart Kiosk's digitizer, blob tracker and decision/GUI
  stages across three address spaces (:class:`KioskRig`).
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from array import array

from checks import check_empty, check_occupancy, check_stream, check_tracking
from inputs import ground_truth, kiosk_scene, payload, payload_pool, replay_frames
from layertrace import Tracer
from measure import RunRecord, Timeline, peak_rss_mb, process_cpu_s

from repro.core import INFINITY
from repro.kiosk import BlobTracker, DecisionModule, GuiModule, VideoFrame
from repro.runtime.cluster import Cluster
from repro.runtime.threads import require_current_thread
from repro.stm import STM, ChannelProbe
from repro.transport import serialization

__all__ = ["WORKLOADS", "StreamRig", "KioskRig"]

#: longest wait for a set-up handshake or for the stages to drain.
STAGE_TIMEOUT_S = 60.0
#: how often the bounded workload samples channel occupancy.
OCCUPANCY_TICK_S = 0.01


# ----------------------------------------------------------------------
# counters the program exposes
# ----------------------------------------------------------------------
def program_counters(cluster: Cluster) -> dict:
    """Wakeups, CLF traffic, payload-framing copies and GC epochs so far."""
    out = {"waiters_woken": 0, "packets_sent": 0, "bytes_sent": 0}
    for space in cluster.spaces:
        for channel in space.local_channels():
            out["waiters_woken"] += getattr(channel, "waiters_woken", 0)
        stats = getattr(space.endpoint, "stats", None)
        out["packets_sent"] += getattr(stats, "packets_sent", 0)
        out["bytes_sent"] += getattr(stats, "bytes_sent", 0)
    frames = getattr(serialization, "frame_stats", None)
    out["payload_bytes_copied"] = getattr(frames, "payload_bytes_copied", 0)
    out["payload_bytes_framed"] = getattr(frames, "payload_bytes_framed", 0)
    gc = getattr(cluster.gc_daemon, "stats", None)
    out["gc_epochs"] = getattr(gc, "epochs", 0)
    out["gc_collected"] = getattr(gc, "total_collected", 0)
    return out


class _Phases:
    """The main thread's side of a run.

    Marks CPU at each phase boundary and, in a traced run, installs the
    layer wrappers at the switch and reads the tracer and the counters of
    the traced half at the end.  ``tick`` is called every
    ``OCCUPANCY_TICK_S`` until the switch, so that it stays out of the
    traced half.
    """

    def __init__(self, timeline: Timeline, counters_fn, tick=None):
        self.timeline = timeline
        self.counters_fn = counters_fn
        self.tick = tick
        self.tracer = Tracer()
        self.cpu_marks: dict[str, float] = {}
        self.trace: dict | None = None
        self.counters: dict = {}
        self._base: dict = {}

    def _wait_until(self, t: float) -> None:
        while True:
            now = time.monotonic()
            if now >= t:
                return
            if self.tick is None:
                time.sleep(t - now)
            else:
                self.tick()
                time.sleep(max(0.0, min(OCCUPANCY_TICK_S, t - time.monotonic())))

    def drive(self) -> None:
        tl = self.timeline
        for name, t in (("meas", tl.t_meas), ("switch", tl.t_switch),
                        ("end", tl.t_end)):
            if t is None:
                continue
            self._wait_until(t)
            self.cpu_marks[name] = process_cpu_s()
            if name == "switch":
                self.tick = None
                self._base = self.counters_fn()
                self.tracer.install()
            elif name == "end" and tl.t_switch is not None:
                self.trace = self.tracer.snapshot()
                self.counters = {
                    key: value - self._base.get(key, 0)
                    for key, value in self.counters_fn().items()
                }


class _Rig:
    """Stages on a thread-runtime cluster, started and stopped together.

    A stage attaches its connections, then calls :meth:`_attached`, which
    returns once every stage has attached and the run has started.  A stage
    that raises is recorded in ``faults`` and releases the others' wait.
    """

    def __init__(self, seed: int, n_spaces: int):
        self.seed = seed
        #: the rig's channels, checked to be empty after the run.
        self.channels: list = []
        #: called by the main thread during the untraced part of a run.
        self.sampler = None
        self.go = threading.Event()
        self.stop = threading.Event()
        self.faults: list[str] = []
        self.stages: list = []
        # Creation and arrival time of each delivered item, in arrival
        # order.  Arrays hold no objects the cyclic garbage collector must
        # scan, so the run's own records add no collector pauses to it.
        self.born = array("d")
        self.arrived = array("d")
        self.n_put = 0
        self.ready: threading.Barrier | None = None
        self.cluster = Cluster(n_spaces=n_spaces)

    def _start(self, stages) -> None:
        """Spawn ``(space, method, name)`` stages; wait until all attached."""
        self.ready = threading.Barrier(len(stages) + 1)
        try:
            for space, method, name in stages:
                # Each stage starts at virtual time 0, so that it can attach
                # before the first item, and sets its own time from there.
                self.stages.append(self.cluster.space(space).spawn(
                    self._guarded, (method, name), name=name, virtual_time=0,
                ))
            self.ready.wait(timeout=STAGE_TIMEOUT_S)
        except BaseException:
            self.abort()
            raise

    def _guarded(self, method, name: str) -> None:
        try:
            method()
        except Exception:  # noqa: BLE001 - reported as a failed run
            print(f"{name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            last = traceback.format_exc().strip().splitlines()[-1]
            self.faults.append(f"{name} failed: {last}")
            self.stop.set()
            self.ready.abort()

    def _attached(self) -> None:
        self.ready.wait(timeout=STAGE_TIMEOUT_S)
        self.go.wait()

    def _join_stages(self) -> None:
        deadline = time.monotonic() + STAGE_TIMEOUT_S
        for stage in self.stages:
            try:
                stage.join(timeout=max(0.0, deadline - time.monotonic()))
            except TimeoutError:
                self.faults.append(f"stage {stage.name} did not finish")

    def abort(self) -> None:
        self.stop.set()
        self.go.set()
        self._join_stages()
        self.cluster.shutdown()

    def _check(self) -> list[str]:
        raise NotImplementedError

    def run(self, timeline: Timeline) -> RunRecord:
        record = RunRecord(timeline)
        phases = _Phases(
            timeline,
            counters_fn=lambda: program_counters(self.cluster),
            tick=self.sampler,
        )
        try:
            self.go.set()
            phases.drive()
            record.rss_mb = peak_rss_mb()
            self.stop.set()
            self._join_stages()
            left = {}
            if not self.faults:
                self.cluster.gc_once()
                for channel in self.channels:
                    probe = ChannelProbe(self.cluster, channel.channel_id)
                    left[channel.name] = probe.snapshot().occupancy
        finally:
            phases.tracer.uninstall()
            self.cluster.shutdown()
        record.cpu_marks = phases.cpu_marks
        record.trace, record.counters = phases.trace, phases.counters
        record.attempted = self.n_put
        record.born, record.arrived = self.born, self.arrived
        if self.faults:
            record.failed = record.attempted - len(self.arrived)
            record.errors += self.faults
            return record
        record.errors += self._check()
        record.errors += check_empty(left)
        return record


# ----------------------------------------------------------------------
# stripe and bounded
# ----------------------------------------------------------------------
class StreamRig(_Rig):
    """A producer and a consumer thread over one channel in one space.

    The producer puts ``payload(ts)`` with an unknown refcount for
    ts = 0, 1, 2, ... until the run ends, then an empty end-of-stream item.
    The consumer holds ``n_conns`` input connections and serves timestamp
    ``ts`` on connection ``ts % n_conns``: a get, then ``consume_until``
    (stripe) or ``consume`` (bounded).  ``window`` caps the items in flight
    (a closed loop); a bounded channel caps them by its capacity instead,
    and its occupancy is sampled with a :class:`ChannelProbe`.
    """

    def __init__(self, seed: int, *, name: str, n_conns: int,
                 capacity: int | None, window: int | None,
                 consume_until: bool):
        super().__init__(seed, n_spaces=1)
        self.n_conns = n_conns
        self.capacity = capacity
        self.consume_until = consume_until
        self.window = threading.Semaphore(window) if window else None
        self.pool = payload_pool(seed)
        self.created = array("d")  # by timestamp
        self.observed_ts = array("q")
        self.observed_values: list[bytes] = []
        self.occupancy: list[int] = []
        channel = STM(self.cluster.space(0)).create_channel(name, capacity=capacity)
        self.channels = [channel]
        if capacity is not None:
            probe = ChannelProbe(self.cluster, channel.channel_id)
            self.sampler = lambda: self.occupancy.append(probe.snapshot().occupancy)
        self._start([
            (0, self._produce, "bench-producer"),
            (0, self._consume, "bench-consumer"),
        ])

    def _produce(self) -> None:
        me = require_current_thread()
        out = self.channels[0].attach_output()
        self._attached()
        pool, window, created = self.pool, self.window, self.created
        ts = 0
        try:
            while not self.stop.is_set():
                if window is not None:
                    window.acquire()
                me.set_virtual_time(ts)
                created.append(time.monotonic())
                out.put(ts, payload(pool, ts))
                ts += 1
            me.set_virtual_time(ts)
            out.put(ts, b"")  # end of stream
        finally:
            self.n_put = ts

    def _consume(self) -> None:
        me = require_current_thread()
        conns = [self.channels[0].attach_input() for _ in range(self.n_conns)]
        # The consumer puts nothing, so at INFINITY it never holds the GC
        # horizon down.
        me.set_virtual_time(INFINITY)
        self._attached()
        n, window, created = self.n_conns, self.window, self.created
        born, arrived = self.born, self.arrived
        observed_ts, observed_values = self.observed_ts, self.observed_values
        ts = 0
        while True:
            conn = conns[ts % n]
            item = conn.get(ts)
            t = time.monotonic()
            if self.consume_until:
                conn.consume_until(ts)
            else:
                conn.consume(ts)
            if not item.value:
                return  # end of stream
            born.append(created[ts])
            arrived.append(t)
            observed_ts.append(item.timestamp)
            observed_values.append(item.value)
            if window is not None:
                window.release()
            ts += 1

    def _check(self) -> list[str]:
        expected = payload_pool(self.seed)
        observed = list(zip(self.observed_ts, self.observed_values))
        errors = check_stream(observed, self.n_put, lambda ts: payload(expected, ts))
        if self.capacity is not None:
            errors += check_occupancy(self.occupancy, self.capacity)
        return errors


# ----------------------------------------------------------------------
# kiosk
# ----------------------------------------------------------------------
#: frames the video channel holds between the digitizer and the tracker.
VIDEO_CAPACITY = 8
SINK_SPACE, DIGITIZER_SPACE, TRACKER_SPACE = 0, 1, 2


class KioskRig(_Rig):
    """The Smart Kiosk on three address spaces of the thread runtime.

    Space 1 runs the digitizer and homes the video channel; space 2 runs
    the blob tracker and homes the track channel; space 0 runs the decision
    module and GUI (the sink).  The loop is closed: the digitizer replays
    the seeded frames as fast as the bounded video channel admits them.
    """

    def __init__(self, seed: int):
        self.frames = replay_frames(seed)
        self.tracker = BlobTracker(kiosk_scene(seed).background)
        self.observed: list[tuple[int, int, list]] = []
        super().__init__(seed, n_spaces=3)
        stm = STM(self.cluster.space(SINK_SPACE))
        self.channels = [
            stm.create_channel("bench.kiosk.video", capacity=VIDEO_CAPACITY,
                               home=DIGITIZER_SPACE),
            stm.create_channel("bench.kiosk.tracks", home=TRACKER_SPACE),
        ]
        self._start([
            (DIGITIZER_SPACE, self._digitize, "bench-digitizer"),
            (TRACKER_SPACE, self._track, "bench-tracker"),
            (SINK_SPACE, self._sink, "bench-sink"),
        ])

    def _bind(self, index: int):
        """The rig's channel ``index`` as seen from the calling stage's space."""
        return STM.here().channel(self.channels[index].handle)

    def _digitize(self) -> None:
        me = require_current_thread()
        video = self._bind(0).attach_output()
        self._attached()
        frames = self.frames
        ts = 0
        try:
            while not self.stop.is_set():
                me.set_virtual_time(ts)
                frame = VideoFrame(timestamp=ts, pixels=frames[ts % len(frames)],
                                   captured_at=time.monotonic())
                video.put(ts, frame, refcount=1)
                ts += 1
            me.set_virtual_time(ts)
            video.put(ts, None, refcount=1)  # end of stream
        finally:
            self.n_put = ts

    def _track(self) -> None:
        """Blob-track each frame; put the record at the frame's timestamp."""
        me = require_current_thread()
        video = self._bind(0).attach_input()
        tracks = self._bind(1).attach_output()
        # Attached at visibility 0; from here on every put inherits a timestamp.
        me.set_virtual_time(INFINITY)
        self._attached()
        ts = 0
        while True:
            frame = video.get(ts).value
            if frame is None:
                tracks.put(ts, None, refcount=1)
                video.consume(ts)
                return
            record = self.tracker.analyze(ts, frame.pixels)
            tracks.put(ts, (frame.captured_at, record), refcount=1)
            video.consume(ts)
            ts += 1

    def _sink(self) -> None:
        me = require_current_thread()
        tracks = self._bind(1).attach_input()
        me.set_virtual_time(INFINITY)
        self._attached()
        decider, gui = DecisionModule(), GuiModule()
        ts = 0
        while True:
            item = tracks.get(ts)
            t = time.monotonic()
            tracks.consume(ts)
            if item.value is None:
                return
            created, record = item.value
            gui.react(decider.decide(ts, record))
            self.born.append(created)
            self.arrived.append(t)
            self.observed.append((
                item.timestamp, record.timestamp,
                [(r.cx, r.cy) for r in record.regions],
            ))
            ts += 1

    def _check(self) -> list[str]:
        return check_tracking(self.observed, self.n_put, ground_truth(self.seed))


WORKLOADS = {
    "stripe": lambda seed: StreamRig(
        seed, name="bench.stripe", n_conns=256, capacity=None, window=256,
        consume_until=True,
    ),
    "bounded": lambda seed: StreamRig(
        seed, name="bench.bounded", n_conns=1, capacity=8, window=None,
        consume_until=False,
    ),
    "kiosk": KioskRig,
}
