"""``python -m repro.experiments`` — regenerate the paper's artifacts."""

from repro.experiments.runner import main

# The guard matters: under the spawn start method, the --domains N lockstep
# workers re-import __main__, and an unguarded call would recursively re-run
# the whole CLI.
if __name__ == "__main__":
    raise SystemExit(main())
