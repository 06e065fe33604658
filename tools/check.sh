#!/usr/bin/env bash
# Tier-1 gate plus sanitizer passes.
#
#   tools/check.sh          # build + ctest + smoke + TSan + UBSan passes
#   tools/check.sh --fast   # skip the sanitizer passes
#
# After ctest, the engine-stats and watchdog suites run 50 times over:
# a job that reports completion before the master's bookkeeping, or a
# watchdog scan that misreads a just-scheduled task, fails only now and
# then, and repetition is what makes such races show up.
#
# The TSan stage rebuilds into build-tsan/ with TS_SANITIZE=thread and
# runs the concurrent-structure and engine-stress suites, which cover
# every lock/atomic in the engine hot paths. The UBSan stage rebuilds
# into build-ubsan/ with TS_SANITIZE=undefined and runs the split-kernel
# and trainer suites, which exercise the index/offset arithmetic of the
# histogram and exact scratch kernels.
#
# The smoke benches run inside build/, so the BENCH_*.json files they
# write land there and leave the checked-in results alone. Builds use
# one compile job per CPU.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: completion-order races (EngineStats*/Watchdog* x50) =="
./build/tests/treeserver_tests --gtest_filter='EngineStats*:Watchdog*' \
  --gtest_repeat=50 --gtest_brief=1

echo "== serve smoke: quickstart example + quick serving bench =="
./build/examples/serve_quickstart
(cd build && ./bench/bench_serve --quick)

echo "== rpc smoke: quick transport bench =="
(cd build && ./bench/bench_rpc --quick)

echo "== chaos smoke: injector overhead guard + fixed-seed mixed profile =="
(cd build && ./bench/bench_rpc --chaos-overhead)
TREESERVER_NODE=./build/tools/treeserver_node \
  CHAOS_PROFILES="mixed" CHAOS_SEED=20260808 \
  bash tools/chaos_test.sh

echo "== fleet smoke: router + 2 replicas, kill-one failover =="
TREEFLEET=./build/tools/treefleet \
  TREESERVER_TOP=./build/tools/treeserver_top \
  FLEET_REPLICAS=2 FLEET_CHAOS=none FLEET_KILL_RANK=1 \
  FLEET_REQUESTS=4000 FLEET_PERIOD_US=500 \
  bash tools/fleet_failover_test.sh

echo "== observability smoke: top self-test + overhead guard =="
./build/tools/treeserver_top --self-test
(cd build && ./bench/bench_micro --obs-overhead)

if [[ "$FAST" == "1" ]]; then
  echo "== skipping sanitizer passes (--fast) =="
  exit 0
fi

echo "== tsan: configure + build =="
cmake -B build-tsan -S . -DTS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)"

echo "== tsan: concurrent_test + engine_stress_test + serve + rpc + obs + chaos + fleet =="
# Chaos*/Reliable*/FaultInject* run the seeded fault injector, the
# ack/retransmit layer and a full chaos training job under TSan — the
# injector's delivery thread and the retransmit thread touch every
# engine queue concurrently, exactly the interleavings TSan exists for.
# Fleet*/ModelRegistry* add the router's timer/receive threads and the
# hot-swap-under-load registry stress on top.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/treeserver_tests \
  --gtest_filter='BlockingQueue*:ConcurrentHashMap*:PlanDeque*:EngineStress*:InferenceServer*:ModelRegistry*:Fleet*:TcpTransport*:TcpCluster*:HttpServer*:StatsReporter*:Watchdog*:TracerTest*:Chaos*:Reliable*:FaultInject*'

echo "== ubsan: configure + build =="
cmake -B build-ubsan -S . -DTS_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$(nproc)"

echo "== ubsan: split/histogram kernels + trainer + forest + serving =="
# Simd* adds the fused regression kernel's offset arithmetic on top of
# the original split/trainer coverage; CompiledForestParity* the
# batched serving accumulators' pool indexing.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ./build-ubsan/tests/treeserver_tests \
  --gtest_filter='Split*:Binned*:NodeHistogram*:Hist*:Trainer*:Forest*:Simd*:CompiledForestParity*'

echo "== scalar-only: configure + build + ctest (-DTS_SIMD=OFF) =="
# The parity suites must also pass with every vector translation unit
# stripped from the build — the scalar twins ARE the reference.
cmake -B build-scalar -S . -DTS_SIMD=OFF >/dev/null
cmake --build build-scalar -j"$(nproc)"
(cd build-scalar && ctest --output-on-failure -j"$(nproc)")

echo "== all checks passed =="
