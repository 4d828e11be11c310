#!/usr/bin/env bash
# Runs every workload once, each in its own process, and prints each one's
# metrics with units and sample counts. Exits non-zero if any run fails,
# including a failed output check. Run from the repository root:
#
#   bash qbench/all.sh [--seed N] [--seconds S] [--trace 0|1]
set -uo pipefail

status=0
for w in vqe-noisy hpc-open fed-small; do
	if ! bash qbench/run.sh --workload "$w" "$@"; then
		echo "qbench: workload $w failed" >&2
		status=1
	fi
done
exit $status
