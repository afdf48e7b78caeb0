# Tier-2 sanitizer gate (driven by the `sanitize_core` ctest).
#
# Configures a nested build of this source tree with
# MHS_SANITIZE=address,undefined, builds the core test suites plus one
# bench and the bench_report tool, then runs them all under the
# instrumented binaries. Any ASan/UBSan finding (leak, OOB, UB) makes a
# suite exit non-zero and fails the test.
#
# Inputs (via -D):
#   SOURCE_DIR - repository root
#   WORK_DIR   - scratch directory for the nested build
if(NOT SOURCE_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "run_sanitized.cmake needs -DSOURCE_DIR and -DWORK_DIR")
endif()

set(build_dir "${WORK_DIR}/build")
file(MAKE_DIRECTORY "${build_dir}")

# The suites that exercise the memory-heavy subsystems: containers and
# threading (base), the IR and its serializers, the JSON parser (obs),
# the new verifier/lints (analysis + lint CLI), the multi-threaded
# explorer, the fault injector (unit suite plus the 500-plan fuzz
# harness, whose adversarial inputs are exactly what sanitizers are
# for), the value-range abstract interpreter (unit suite plus the
# 10k-kernel soundness fuzzer, whose random arithmetic probes the i64
# corner cases UBSan exists to catch), the service daemon (sockets,
# the worker pool, and request coalescing — the tree's most
# concurrency-dense code), and the RtlSim differential equivalence
# layer (unit suite, committed reproducer corpus, and the equiv_fuzz
# harness at reduced iteration count — random hardware being stepped
# cycle by cycle is dense in the shifts and wraps UBSan watches), and
# high-level synthesis (unit suite plus the golden-fingerprint sweep,
# whose heap- and CSR-indexed schedulers and binders index by op id), and
# HW/SW partitioning (unit suite plus the golden and differential sweep,
# whose flat cost model indexes CSR successor lists by raw task and edge
# index out of per-thread scratch). A full-tree sanitized build would
# take far longer on the single-core CI box for little extra coverage.
set(suites test_base test_ir test_obs test_analysis test_absint
           absint_fuzz test_lint_cli test_explorer test_fault fault_fuzz
           test_serve serve_traffic test_equivalence test_corpus
           test_hw test_hls_golden test_partition test_partition_golden)

execute_process(
  COMMAND ${CMAKE_COMMAND} -S "${SOURCE_DIR}" -B "${build_dir}"
          -DMHS_SANITIZE=address,undefined
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE config_rc)
if(NOT config_rc EQUAL 0)
  message(FATAL_ERROR "sanitized configure failed with ${config_rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build "${build_dir}"
          --target ${suites} equiv_fuzz bench_fig2_tasks bench_report
  RESULT_VARIABLE build_rc)
if(NOT build_rc EQUAL 0)
  message(FATAL_ERROR "sanitized build failed with ${build_rc}")
endif()

foreach(suite IN LISTS suites)
  execute_process(
    COMMAND "${build_dir}/tests/${suite}"
    RESULT_VARIABLE suite_rc)
  if(NOT suite_rc EQUAL 0)
    message(FATAL_ERROR "${suite} failed under ASan/UBSan (rc=${suite_rc})")
  endif()
endforeach()

# equiv_fuzz runs at a reduced iteration count under the sanitizers:
# each case synthesizes a kernel and steps the RtlSim cycle by cycle,
# so the full 2500-kernel campaign would dominate the gate's runtime.
# 300 instrumented kernels still sweep every op kind and both shrink
# stages' code paths.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "MHS_FUZZ_ITERS=300"
          "${build_dir}/tests/equiv_fuzz"
  RESULT_VARIABLE equiv_rc)
if(NOT equiv_rc EQUAL 0)
  message(FATAL_ERROR "equiv_fuzz failed under ASan/UBSan (rc=${equiv_rc})")
endif()

# One real bench run plus the report checker, sanitized end to end: the
# Reporter -> JSON file -> bench_report parse/validate round trip.
set(json_dir "${WORK_DIR}/bench_json")
file(REMOVE_RECURSE "${json_dir}")
file(MAKE_DIRECTORY "${json_dir}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "MHS_BENCH_OUT=${json_dir}"
          "MHS_GIT_REV=sanitize" "${build_dir}/bench/bench_fig2_tasks"
          --benchmark_min_time=1x
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "sanitized bench_fig2_tasks failed (rc=${bench_rc})")
endif()
execute_process(
  COMMAND "${build_dir}/src/apps/bench_report/bench_report" --check
          "${json_dir}"
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR
      "sanitized bench_report --check failed (rc=${check_rc})")
endif()

message(STATUS "sanitize_core: all suites ASan/UBSan-clean")
