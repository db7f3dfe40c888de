#!/usr/bin/env bash
# Race-checks the concurrent code (thread pool, path cache, parallel
# campaign engine) under ThreadSanitizer in one command:
#
#   tools/run_tsan.sh [extra cmake args...]
#
# Configures a dedicated build-tsan tree with -fsanitize=thread and runs
# every test carrying the `tsan` CTest label.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-tsan
cmake -B "$BUILD" -S . -DNETCONG_SANITIZE=thread "$@"
cmake --build "$BUILD" -j "$(nproc)"
# tsan-labeled tests plus the obs suite (its lock-free slabs/rings are
# exactly the code a race checker should see), the property families, whose
# differential-determinism harness runs the campaign across thread counts,
# the serve suite (MPSC queues feeding sharded workers — the densest
# cross-thread traffic in the codebase; wal_test/net_test ride the same
# label, racing the socket listener/accept threads against producers),
# the bench smokes (pathmodel and adversary scoring end to end, the
# latter through the parallel campaign engine), the pathmodel suite
# (multi-CC packet sims + classifier; single-threaded, but cheap
# insurance against UB the instrumented build would also flag), and the
# adversary suite (scenario key rewrites feeding the parallel campaign
# engine across worker counts) — at reduced budgets so the instrumented run
# stays fast.
NETCONG_PBT_ITERS="${NETCONG_PBT_ITERS:-3}" \
NETCONG_PATHMODEL_TESTS="${NETCONG_PATHMODEL_TESTS:-1}" \
NETCONG_ADVERSARY_DAYS="${NETCONG_ADVERSARY_DAYS:-2}" \
  ctest --test-dir "$BUILD" -L 'tsan|obs|pbt|bench|serve|pathmodel|adversary' \
  --output-on-failure
