"""Benchmark worker: one fresh process that imports bsblab and runs CLI jobs.

Started by ``bench/run.py``, never by hand:

    python3 bench/worker.py probe            # print the import time only
    python3 bench/worker.py PLAN.json OUT.json

The plan names the package source directory, the job list, the output root
and the mode. In ``measure`` mode the jobs run one after another in a
closed loop until the time budget is spent (at least one full pass). In
``trace`` mode one traced pass runs between two untraced ones; the tracer
is installed from this file and removed again. Every job goes through the public
entry point ``bsblab.cli.main(argv)``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import inspect
import json
import os
import resource
import sys
import time
import traceback

# bsblab modules whose public functions the tracer wraps; each is a layer.
LAYERS = ("model", "fem", "dynamics", "spectral", "analysis", "cli")
# scipy.linalg attributes the package calls; traced as the "lapack" layer.
LAPACK = ("lu_factor", "lu_solve", "cholesky", "solve_triangular",
          "eig", "eigvals", "eigh", "svdvals")


def import_package(src: str):
    """Import bsblab and its CLI from ``src``; return (cli module, seconds)."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    import bsblab.cli
    return bsblab.cli, time.perf_counter() - start


# --- tracer -----------------------------------------------------------------

class Tracer:
    """Records one span per call of a wrapped function, in memory.

    A span is ``[job, name, parent, start, end, note]``: ``parent`` is the
    index of the enclosing span (-1 at the root) and ``note`` carries the
    few argument-derived facts the metrics need (mesh size and step count
    of a simulation, grid size of a resolvent sweep).
    """

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name: str, fn, annotate=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [self.job, name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self, package, linalg) -> None:
        """Rebind every public function of the layers, and the LAPACK calls.

        A function stored in a module-level container keeps its original
        binding everywhere: the package compares some of those by identity
        (``fem.element_matrices`` tests ``shapes is hermite_shapes`` on the
        entries of ``fem._ELEMENT_KINDS``), and a wrapper would fail it.
        """
        modules = [getattr(package, layer) for layer in LAYERS]
        held = set()
        for module in modules:
            for value in vars(module).values():
                if isinstance(value, dict):
                    value = list(value.values())
                if isinstance(value, (list, tuple, set, frozenset)):
                    for item in value:
                        items = item if isinstance(item, tuple) else (item,)
                        held.update(id(x) for x in items if inspect.isfunction(x))
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and id(fn) not in held):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn,
                                                 _ANNOTATE.get(f"{layer}.{name}"))
        # the package re-imports functions by name (cli holds its own
        # `simulate`), so every module binding of a wrapped function moves
        for module in [package, *modules]:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module, name, wrappers[id(value)])
        for name in LAPACK:
            self._rebind(linalg, name, self.wrap(f"lapack.{name}", getattr(linalg, name)))

    def _rebind(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()


def _simulate_note(args, kwargs, result):
    pencil = args[0] if args else kwargs["pencil"]
    return {"n_positions": int(pencil.n_positions), "steps": len(result.trace.times) - 1}


def _sweep_note(args, kwargs, result):
    return {"points": len(result.lambdas)}


_ANNOTATE = {"dynamics.simulate": _simulate_note, "spectral.resolvent_sweep": _sweep_note}


# --- jobs -------------------------------------------------------------------

def run_job(cli, job: dict, out_dir: str, log) -> tuple[int, float]:
    """Run one CLI job; a raised exception counts as exit code -1."""
    argv = [*job["args"], "--out-dir", out_dir]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc(file=log)
        rc = -1
    return rc, time.perf_counter() - start


def run_pass(cli, jobs, out_root, tag, log, samples, deadline=None, tracer=None) -> bool:
    """One pass over the job list; False if the deadline cut it short."""
    for index, job in enumerate(jobs):
        if deadline is not None and time.perf_counter() + job.get("last_s", 0.0) > deadline:
            return False
        if tracer is not None:
            tracer.job = index
        out_dir = os.path.join(out_root, f"{tag}-j{index}")
        rc, wall = run_job(cli, job, out_dir, log)
        job["last_s"] = wall
        samples.append({"job": index, "tag": tag, "traced": tracer is not None,
                        "rc": rc, "wall_s": wall, "out": out_dir})
    return True


def blas_info() -> dict:
    """BLAS vendor, versions, thread counts and CPUs seen by this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    threads[pkg.__name__] = int(getattr(lib, symbol)())
                    break
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv) -> int:
    if argv == ["probe"]:
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        print(json.dumps({"setup_s": import_package(src)[1]}))
        return 0
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli, setup_s = import_package(plan["src"])
    jobs, out_root = plan["jobs"], plan["out_root"]
    samples: list = []
    result = {"setup_s": setup_s, "samples": samples, "env": blas_info()}
    with open(os.path.join(out_root, "jobs.log"), "w", encoding="utf-8") as log:
        if plan["mode"] == "measure":
            deadline = time.perf_counter() + plan["seconds"]
            run_pass(cli, jobs, out_root, "p0", log, samples)
            passes = 1
            while run_pass(cli, jobs, out_root, f"p{passes}", log, samples, deadline):
                passes += 1
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            import bsblab
            import scipy.linalg

            # untraced passes before and after the traced one, so that
            # warm-up in the first pass does not bias the overhead ratio
            run_pass(cli, jobs, out_root, "plain0", log, samples)
            tracer = Tracer()
            tracer.install(bsblab, scipy.linalg)
            try:
                run_pass(cli, jobs, out_root, "traced", log, samples, tracer=tracer)
            finally:
                tracer.uninstall()
            run_pass(cli, jobs, out_root, "plain1", log, samples)
            result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
