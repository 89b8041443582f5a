"""One benchmark step in a fresh process.

Usage: python3 worker.py SPEC

SPEC is a JSON object holding "mode", "src" (the directory holding the
`invnoise` package), "result" (where to write this step's JSON result),
"trace" and the mode's arguments:

* ``setup``: import `invnoise`, load the config, build the params and
  codebook, and load the source grid, as every command does before its
  first edit.  Times the process from its start to a loaded grid.
* ``cli``: run ``invnoise <argv>`` through `invnoise.cli.main` and time
  it.  Import time is excluded; it belongs to ``setup``.
* ``replay``: read an inverse-noise file, replay its pyramid under the
  file's own condition label, and save the tokens for checking.

After the timed part, every step times `reference_kernel`, a fixed
computation outside `invnoise`, so that the benchmark can tell how fast
the host ran at that moment.

Each step runs in its own process, so no state from an earlier command
can speed up a later one.  With "trace" set to "spans", spans around
the public functions of every layer are kept in memory and written out
with the result; with "alloc", the tracemalloc peak is.  The two are
kept apart because tracemalloc slows allocation-heavy code several
times over, which would distort the spans.
"""

from time import perf_counter

T_START = perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402


def reference_kernel():
    """Best of three timings of a fixed mix of numpy and interpreter work.

    Keyed-hash style uint64 arithmetic, small distance einsums and a
    Python loop, about 7 ms on a 2-core Xeon host at full speed.  It must
    never change: scaled times are only comparable under the same kernel.
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        z = np.arange(1 << 14, dtype=np.uint64)
        for _ in range(60):
            z = z + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        a = (z >> np.uint64(11)).astype(np.float64).reshape(64, 256) / 2.0**53
        for _ in range(40):
            d = a[:, None, :16] - a[None, :16, :16]
            np.einsum("ijk,ijk->ij", d, d)
        x = 0
        for i in range(40000):
            x += i * i
        best = min(best, perf_counter() - t0)
    return best


def main(spec):
    sys.path.insert(0, spec["src"])
    import invnoise.cli as cli
    from invnoise import config, demo, fileio, inversion, predictor

    result = {}
    mode = spec["mode"]
    if mode == "setup":
        cfg = config.load_config(spec["config"])
        params = cfg.build_params()
        grid = spec["grid"]
        if grid.startswith("demo:"):
            demo.demo_scene(grid[len("demo:"):], params)
        else:
            fileio.read_grid(grid)
        result["elapsed"] = perf_counter() - T_START
        result["reference_s"] = reference_kernel()
        return result

    tracer = None
    if spec["trace"] == "spans":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif spec["trace"] == "alloc":
        tracemalloc.start()
    if mode == "cli":
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = perf_counter()
            code = cli.main(spec["argv"])
            elapsed = perf_counter() - t0
        result["code"] = code
    elif mode == "replay":
        import numpy as np

        params = config.load_config(spec["config"]).build_params()
        t0 = perf_counter()
        noise_set, _ = fileio.read_noise_set(spec["noise"])
        cond = predictor.condition_embed(noise_set.condition_label, params)
        pyramid = inversion.reconstruct_from_noise(noise_set, cond, params)
        elapsed = perf_counter() - t0
        np.savez(spec["tokens"], *pyramid)
        result["code"] = 0
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["elapsed"] = elapsed
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.spans
    if tracemalloc.is_tracing():
        result["peak_alloc"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    result["reference_s"] = reference_kernel()
    return result


if __name__ == "__main__":
    step = json.loads(sys.argv[1])
    out = main(step)
    with open(step["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
