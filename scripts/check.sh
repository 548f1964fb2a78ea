#!/usr/bin/env bash
# The full local verification matrix, in the order a reviewer would
# want failures reported. Stages are named, not numbered:
#
#   release     Release build (RelWithDebInfo, -Wall -Wextra -Wshadow
#               -Werror) + clang-tidy lint + clang-format --check + the
#               complete ctest suite (which includes the
#               layering_lint_tree / layering_lint_bad_fixture pair and
#               every fuzz corpus replay);
#   layering    scripts/layering_lint.py over the release build's
#               compile_commands.json, then `nm` over libsim_probe --
#               a binary linked against ebcp_libsim alone -- asserting
#               not one ebcp::harness symbol appears in it (the link
#               succeeding at all is the first half of the proof; see
#               tools/CMakeLists.txt);
#   asan        address+undefined sanitizer build + the complete ctest
#               suite. This build sets -DEBCP_FUZZ=ON, so the five fuzz
#               harnesses are compiled with the same sanitizers as
#               everything else;
#   fuzz-smoke  each harness replays its corpus and then runs a
#               bounded, fixed-seed mutation loop under ASan/UBSan.
#               Failures reproduce by rerunning the printed command;
#   tsan        thread sanitizer build + the sweep, composite and
#               telemetry determinism gates (the tests that drive the
#               parallel runner hard: the adaptive composite
#               controller, the telemetry heartbeat thread and the
#               submission-order reorder buffer);
#   ckpt        checkpoint gates, explicitly and under ASan/UBSan: the
#               save->restore bit-exactness round trip and the
#               corrupted-checkpoint corpus (every injected fault must
#               yield a coded Status, never a crash -- precisely the
#               class of bug the sanitizers catch), plus the ckpt_lint
#               format-version guard;
#   nosimd      -DEBCP_NO_SIMD=ON build (the portable scalar-bitmask
#               probe fallback of the group-probed hash core) re-running
#               the single-core and CMP golden SimResults and the
#               FlatMap suites, so both probe paths stay bit-exact and
#               green.
#
# Set EBCP_CHECK_PGO=1 for an extra opt-in stage: a
# -fprofile-generate build trained on bench/throughput_bench, then a
# -fprofile-use rebuild re-running the golden + perf-smoke gates.
# PGO is a build-machine-local artifact (profiles depend on compiler
# version and workload), which is why the stage is opt-in rather than
# part of the default matrix. scripts/coverage.sh (the parser-TU
# line-coverage floor) is likewise separate: it needs its own
# --coverage build and a few minutes of mutation smoke.
#
# Every stage exports compile_commands.json. Roughly 10-15 minutes on
# a laptop; set EBCP_CHECK_JOBS to bound parallelism.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${EBCP_CHECK_JOBS:-$(nproc)}"

stage() {
    echo
    echo "==== $* ===="
}

run_ctest() {
    ctest --test-dir "$1" --output-on-failure -j "${JOBS}" "${@:2}"
}

stage "release: build + lint + format + tests"
cmake -B build-check -DEBCP_WERROR=ON >/dev/null
cmake --build build-check -j "${JOBS}"
cmake --build build-check --target lint
scripts/format.sh --check
run_ctest build-check

stage "layering: include-graph lint + libsim symbol isolation"
scripts/layering_lint.py --compdb build-check/compile_commands.json \
    --rules layering.rules --root .
# libsim_probe linked: the core resolves with zero harness objects.
# Now prove no harness symbol is even *defined* in the binary (a
# harness object creeping into a core library would still link).
if nm build-check/tools/libsim_probe | grep -q '_ZN4ebcp7harness'; then
    echo "symbol isolation: ebcp::harness symbols found in" \
         "libsim_probe (core -> harness leak):" >&2
    nm -C build-check/tools/libsim_probe | grep 'ebcp::harness' | head >&2
    exit 1
fi
echo "symbol isolation: libsim_probe carries no ebcp::harness symbols"
./build-check/tools/libsim_probe

stage "asan: address+undefined sanitizers (fuzz harnesses included)"
cmake -B build-check-asan -DEBCP_SANITIZE="address;undefined" \
      -DEBCP_FUZZ=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-check-asan -j "${JOBS}"
run_ctest build-check-asan

stage "fuzz-smoke: fixed-seed mutation loops under ASan/UBSan"
# Cheap parsers get deep loops; the two checkpoint targets build and
# run a simulator per input, so their loops are shorter. Seeds are
# pinned: a failure here reproduces by rerunning the same command.
for t in trace_reader json config; do
    echo "-- fuzz_${t} --smoke 2000"
    ./build-check-asan/fuzz/fuzz_${t} --smoke 2000 --seed 7 \
        fuzz/corpus/${t} fuzz/corpus/regressions/${t}
done
for t in ckpt_restore ckpt_audit; do
    echo "-- fuzz_${t} --smoke 40"
    ./build-check-asan/fuzz/fuzz_${t} --smoke 40 --seed 7 \
        fuzz/corpus/${t} fuzz/corpus/regressions/${t}
done

stage "tsan: thread sanitizer (sweep, composite, telemetry determinism)"
cmake -B build-check-tsan -DEBCP_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-check-tsan --target test_runner test_composite \
      test_telemetry -j "${JOBS}"
run_ctest build-check-tsan \
    -R 'sweep_determinism|SweepDeterminism|composite_determinism|CompositeDeterminism|telemetry_determinism|TelemetryDeterminism'

stage "ckpt: checkpoint gates (ASan/UBSan) + format-version lint"
# The sanitizer build from the asan stage already exists; re-run the two
# checkpoint gates by name so a crash-safety regression is reported
# as its own stage, not buried in a 500-entry suite.
run_ctest build-check-asan -R '^ckpt_roundtrip$|^ckpt_corruption_corpus$'
scripts/ckpt_lint.sh

stage "nosimd: scalar probe fallback (-DEBCP_NO_SIMD=ON): goldens + CmpGoldens + FlatMap"
cmake -B build-check-nosimd -DEBCP_NO_SIMD=ON >/dev/null
cmake --build build-check-nosimd --target test_golden_results \
      test_cmp test_flat_map -j "${JOBS}"
run_ctest build-check-nosimd -R 'GoldenResults|CmpGoldens|FlatMap'

if [[ "${EBCP_CHECK_PGO:-0}" == "1" ]]; then
    stage "opt-in PGO: instrument, train on throughput_bench, rebuild"
    cmake -B build-check-pgo -DEBCP_PGO=generate >/dev/null
    cmake --build build-check-pgo --target throughput_bench -j "${JOBS}"
    (cd build-check-pgo &&
     ./bench/throughput_bench warm=500000 measure=1000000 reps=1 \
         >/dev/null)
    cmake -B build-check-pgo -DEBCP_PGO=use >/dev/null
    cmake --build build-check-pgo -j "${JOBS}"
    run_ctest build-check-pgo -R 'GoldenResults|perf-smoke'
fi

echo
echo "check: all stages passed"
