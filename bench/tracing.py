"""Span recording for the traced benchmark run.

A Tracer wraps goldcalc's public functions at their module attributes, and
at every other goldcalc namespace that bound the same object by name, so a
call made through `dynamics.n_vortex_rhs` from `integrate`, or through a name
`verify` imported, is recorded.  Spans are kept in memory as
(name, start, end, parent) and written out once, when the traced process ends.

Run as a script, this file runs one goldcalc CLI command under the tracer:

    python bench/tracing.py SPANS_JSON -- field --z0=1.1+0.2i --gamma=1 ...
    python bench/tracing.py SPANS_JSON --tracemalloc -- simulate ...

With --tracemalloc it records no spans; instead it reports the peak memory
traced during each `dynamics.integrate` call, which is the trajectory the
integrator retains.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc

# module -> public names whose calls become spans.  A name a module does not
# define stops the traced child with an error, so a layer never reads 0 by
# accident.
TRACED = {
    "goldcalc.hydro": ("field_grid", "stream_function", "vortex_velocity",
                       "velocity_via_ln_phi", "FlowGrid.to_csv"),
    "goldcalc.dynamics": ("integrate", "n_vortex_rhs", "hamiltonian", "green_function",
                          "single_vortex_omega", "load_initial_conditions",
                          "Trajectory.to_csv"),
    "goldcalc.verify": ("run_suite",),
}


def _resolve(module, dotted: str):
    """(owner, attribute, object) for 'func' or 'Class.method'."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Wraps callables so that each call records a span; restores them on uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []       # [name index, start, end, parent index]
        self._name_index: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        base = self._name_id(name)
        by_suite = name == "verify.run_suite"

        def traced(*args, **kwargs):
            nid = self._name_id(f"{name}:{args[0]}") if by_suite and args else base
            sid = len(spans)
            span = [nid, time.perf_counter(), 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every name in TRACED across the loaded goldcalc modules."""
        for mod_name, names in TRACED.items():
            module = importlib.import_module(mod_name)
            short = mod_name.rsplit(".", 1)[-1]
            for dotted in names:
                owner, attr, original = _resolve(module, dotted)
                wrapper = self.wrap(f"{short}.{dotted}", original)
                if "." in dotted:
                    self._patch(owner, attr, wrapper)
                    continue
                for other in [m for n, m in sys.modules.items()
                              if n == "goldcalc" or n.startswith("goldcalc.")]:
                    for key, val in list(vars(other).items()):
                        if val is original:
                            self._patch(other, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def summarize(names: list[str], spans: list[list]) -> dict:
    """Per span name: count, total seconds, self seconds, and top-level seconds.

    Self time is a span's duration less the durations of its direct children;
    top-level spans are the calls the CLI made into the library.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        rec = out.setdefault(names[nid], [0, 0.0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += end - start
        rec[2] += end - start - child[i]
        if parent is None:
            rec[3] += end - start
    return {name: dict(zip(("count", "total", "self", "top"), rec)) for name, rec in out.items()}


def _peak_integrate(dynamics, peaks: list[int]):
    original = dynamics.integrate

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    dynamics.integrate = measured
    return original


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    spans_path, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    import goldcalc
    from goldcalc import cli, dynamics

    doc = {"goldcalc": goldcalc.__file__}
    tracer = Tracer()
    peaks: list[int] = []
    if "--tracemalloc" in flags:
        original = _peak_integrate(dynamics, peaks)
    else:
        tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        end = time.perf_counter()
        tracer.uninstall()
        if "--tracemalloc" in flags:
            dynamics.integrate = original
    doc["main_s"] = end - start
    doc["traj_peak_bytes"] = max(peaks) if peaks else None
    doc["names"] = tracer.names
    doc["spans"] = [[nid, round(s - start, 7), round(e - start, 7), parent]
                    for nid, s, e, parent in tracer.spans]
    with open(spans_path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
