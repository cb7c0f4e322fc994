"""Per-layer tracing from outside the program.

The tracer wraps the public functions of the nspmr modules and rebinds every
module attribute that refers to them, so calls made through ``from .geometry
import point_in_polygon`` in another module are counted too. Each wrapper
records a call count and self time: its own duration minus the time spent in
wrapped functions it called. A wrapped callee's own bookkeeping is charged to
the callee's whole window, not to its caller, and the part no clock inside a
wrapper can see (entering and leaving the wrapper) is measured once per
install and taken off the caller too. The harness installs the wrappers for a
timed pass only, so its own checks are not charged to a layer.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

MODULES = ("geometry", "sensing", "planner", "sim", "world", "bugs", "output")

# Leaf helpers called once per edge, ray or candidate. A wrapper costs about
# as much as their body, so their time stays with the caller instead.
UNWRAPPED = frozenset(
    {
        "geometry.distance",
        "geometry.point_segment_distance",
        "geometry.compass_unit",
        "geometry.circular_diff",
        "geometry.math_to_compass",
        "geometry.normalize_compass",
        "sensing.step_length",
        "sensing.blocking_threshold",
        "planner.quantize",
        "planner.apply_move",
    }
)


RESIDUAL_CALLS, RESIDUAL_SLICES = 2000, 5


def measure_residual() -> float:
    """Per-call time that a wrapped callee still adds to its caller's self
    time: the caller's self time with the callee wrapped, minus that with
    it bare, per call. The median of a few slices."""

    def leaf():
        return None

    def caller(fn):
        for _ in range(RESIDUAL_CALLS):
            fn()

    probe = Tracer()
    wrapped_caller = probe._wrap("caller", caller)
    wrapped_leaf = probe._wrap("leaf", leaf)
    samples = []
    for _ in range(RESIDUAL_SLICES):
        per_leaf = []
        for fn in (leaf, wrapped_leaf):
            probe.reset()
            wrapped_caller(fn)
            per_leaf.append(probe.self_s("caller"))
        samples.append((per_leaf[1] - per_leaf[0]) / RESIDUAL_CALLS)
    return max(0.0, statistics.median(samples))


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self._stack: list[float] = []  # child time of each open wrapped call
        self._restore: list[tuple[object, str, object]] = []
        self._run_index = 0
        self._residual = 0.0  # seconds per wrapped call that no clock of its own sees
        self.scan_keys: set = set()
        self.scans = 0

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[0], entry[1] = 0, 0.0
        self.scan_keys.clear()
        self.scans = 0

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def _on_run(self, args) -> None:
        self._run_index += 1

    def _on_scan(self, args) -> None:
        # scan(pos, world, d, delta): a scan repeats when the node and every
        # obstacle pose repeat within one run
        pos, world = args[0], args[1]
        poses = tuple(ob.shape.vertices[0] for ob in world.obstacles)
        self.scan_keys.add((self._run_index, pos, poses))
        self.scans += 1

    def _wrap(self, name: str, fn):
        entry = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = {"sim.run": self._on_run, "sensing.scan": self._on_scan}.get(name)
        residual = self._residual

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            if hook is not None:
                hook(args)
            entry[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[1] += clock() - t0 - stack.pop()
                if stack:  # the caller is charged nothing of this wrapper
                    stack[-1] += clock() - t_in + residual

        return wrapper

    def install(self) -> None:
        """Wrap each public function of MODULES and rebind every reference
        to it held by a module of nspmr."""
        self._residual = measure_residual()
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"nspmr.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nspmr" or mod_name.startswith("nspmr.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()
