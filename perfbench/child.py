"""One workload process: set up, then run the thickflow CLI once.

    python3 child.py --src SRC --config CFG --timing OUT.json
                     [--trace SPANS.npz] -- <thickflow CLI arguments>

Set-up imports thickflow from SRC with the solver modules the CLI
imports before it builds fields, loads and validates the config, and
builds the initial fields. The monotonic clock reading at that point
goes to OUT.json; the parent started its clock just before spawning
this process, so the difference is the set-up time. The CLI then reuses
the loaded config instead of parsing the file again.

With --trace, spans around every thickflow layer are recorded after
set-up and saved to SPANS.npz once the CLI has returned.
"""

import argparse
import json
import os
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--timing", required=True)
    ap.add_argument("--trace", default="")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    sys.path.insert(0, args.src)
    # the CLI imports all three solver modules before it builds fields
    from thickflow import cli, powerlaw1d, semistationary2d  # noqa: F401
    from thickflow import singular1d  # noqa: F401
    from thickflow.config import load_config

    package = os.path.dirname(os.path.abspath(cli.__file__))
    if package != os.path.join(os.path.abspath(args.src), "thickflow"):
        sys.exit(f"thickflow imported from {package}, not from {args.src}")

    t0 = time.perf_counter()
    cfg = load_config(args.config)
    cfg.build_params()
    cfg.initial_fields(cfg.grid())
    t1 = time.perf_counter()
    setup_end = time.monotonic()

    real_load = cli.load_config
    cli.load_config = lambda path: cfg if path == args.config \
        else real_load(path)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.record("config.load", t0, t1)
        tracer.install()

    rc = cli.main(cli_args)
    main_end = time.monotonic()
    if tracer is not None:
        tracer.save(args.trace)
    with open(args.timing, "w") as f:
        json.dump({"setup_end": setup_end, "main_end": main_end, "rc": rc}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
