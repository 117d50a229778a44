#!/bin/sh
# Builds build-bench/ in Release and runs every workload of the pipeline
# benchmark, untraced then traced, each in its own process, printing one
# merged JSON document (nproc, seed, git revision, every metric).
#
#   bench/pipeline/run.sh [--seed N] [--seconds S] [--out FILE]
exec python3 "$(dirname "$0")/run.py" --suite "$@"
