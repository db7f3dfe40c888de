#!/usr/bin/env bash
# Memory-checks the degraded-data paths (fault injection, corpus
# degradation, inference over lossy corpora) under AddressSanitizer in one
# command:
#
#   tools/run_asan.sh [extra cmake args...]
#
# Configures a dedicated build-asan tree with -fsanitize=address and runs
# every test carrying the `asan` CTest label.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-asan
cmake -B "$BUILD" -S . -DNETCONG_SANITIZE=address "$@"
cmake --build "$BUILD" -j "$(nproc)"
# asan-labeled tests plus the obs suite (ring-buffer indexing and slab
# pooling are the kind of code ASan exists for), the property families
# (randomized worlds through every layer), the serve suite (queued events
# moved across threads and merged evidence stores — wal_test/net_test ride
# the same label, putting the frame codec, WAL segment I/O, and socket
# listener under memory checking), the bench smokes (pathmodel and
# adversary scoring end to end), the pathmodel suite (multi-CC packet sims,
# whose per-flow trace buffers and downsampling indices are worth bounds
# checking), and the adversary suite (phantom-router relabeling and
# crossing-series bookkeeping over shifting corpora) — all at reduced
# budgets so the instrumented run stays fast.
NETCONG_PBT_ITERS="${NETCONG_PBT_ITERS:-3}" \
NETCONG_PATHMODEL_TESTS="${NETCONG_PATHMODEL_TESTS:-1}" \
NETCONG_ADVERSARY_DAYS="${NETCONG_ADVERSARY_DAYS:-2}" \
  ctest --test-dir "$BUILD" -L 'asan|obs|pbt|bench|serve|pathmodel|adversary' \
  --output-on-failure
