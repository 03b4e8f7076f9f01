"""Times the benchmark's set-up in this fresh interpreter and prints the
seconds: import the package, load every study's configuration, resolve its
drift scheme and build its inversion node set -- everything before the
first generator assembly.  The time is rescaled to the host's full speed
as run.py rescales its passes (hostspeed.py).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import run
from hostspeed import SpeedProbe


def main() -> int:
    items = run.make_workload(sys.argv[1], int(sys.argv[2]))
    speed = SpeedProbe()
    speed.start()
    t0 = time.perf_counter()
    try:
        cli = run.Program().cli
        for item in items:
            cfg = cli.load_config(run.config_path(item), run.overrides(item))
            cli._resolve_scheme(cfg)
            cli.inversion_nodes_weights(cfg.T, cfg.laplace)
        t1 = time.perf_counter()
    finally:
        speed.stop()
    print(speed.rescale(t1 - t0, t0, t1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
