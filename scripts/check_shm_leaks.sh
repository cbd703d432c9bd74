#!/usr/bin/env bash
# Fail when a job leaves POSIX shared-memory segments behind.
#
# Every multiprocessing.shared_memory segment the repo creates is named
# psm_* by CPython; a segment still present in /dev/shm after a test or
# smoke job exits means an unlink was skipped (e.g. an epoch retired
# without its last lease being released).  Used by every CI job after
# its test step.
#
# Usage: check_shm_leaks.sh
set -euo pipefail

if [ $# -gt 0 ]; then
    echo "usage: $0" >&2
    exit 2
fi

segments=$(ls /dev/shm/psm_* 2>/dev/null || true)
if [ -n "$segments" ]; then
    echo "leaked shared-memory segments: $segments" >&2
    exit 1
fi
echo "no leaked /dev/shm segments"
