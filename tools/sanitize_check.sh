#!/usr/bin/env bash
# Build the tree under a sanitizer and run the concurrency- and
# chaos-labelled tests (worker pool + parallel campaign engine
# determinism, golden outputs built in bands across a pool —
# DGEMM rows, LavaMD boxes, and CLAMR row bands at every time step,
# which read a halo row of the shared state and write disjoint
# rows — concurrent store access, the suite prepass, chaos
# injection, watchdog, checkpoint/resume).
#
# Usage: tools/sanitize_check.sh [thread|address] [build-dir]
#
# Defaults to ThreadSanitizer in build-tsan/. Pass "address" to vet
# the same tests under AddressSanitizer instead, together with the
# kernels-, golden-, parsers- and metrics-labelled tests: the
# stencil steps index rows through raw pointers, the goldens replay
# every manifestation, the beam-log parser indexes string_views
# into untrusted bytes and parses #ERR values in place, and the
# criticality fold walks one sorted array of tagged positions.
set -euo pipefail

SANITIZER="${1:-thread}"
# Every binary carrying the concurrency or chaos label must be
# listed: ctest only finds the tests of binaries that were built.
# radcrit_cli is needed by the check_resume ctest (chaos label),
# which SIGKILLs and resumes a live campaign under the sanitizer.
TARGETS=(test_pool test_engine test_jobs_precedence test_timeline
         test_chaos test_resume test_prop_chaos test_store_concurrency
         test_suite test_golden_bands radcrit_cli)
LABELS="concurrency|chaos"
case "$SANITIZER" in
    thread) DEFAULT_DIR=build-tsan ;;
    address)
        DEFAULT_DIR=build-asan
        TARGETS+=(test_hotspot test_clamr test_detectors test_prop_kernels
                  test_golden test_report test_beamlog
                  test_prop_beamlog test_prop_beamlog_fuzz
                  test_store test_stream test_criticality
                  test_locality test_prop_metrics)
        LABELS+="|kernels|golden|parsers|metrics"
        ;;
    *)
        echo "sanitize_check: unknown sanitizer '$SANITIZER'" \
             "(thread or address)" >&2
        exit 2
        ;;
esac
BUILD_DIR="${2:-$DEFAULT_DIR}"
SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SOURCE_DIR" \
      -DRADCRIT_SANITIZE="$SANITIZER" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"
ctest --test-dir "$BUILD_DIR" -L "$LABELS" --output-on-failure
