# Tier-2 sanitizer gates (driven by the `sanitize_core` and
# `sanitize_thread` ctests).
#
# Configures a nested build of this source tree with MHS_SANITIZE set to
# the requested sanitizers, builds the requested test suites plus
# equiv_fuzz, one bench and the bench_report tool, then runs them all
# under the instrumented binaries. Any finding (ASan leak or OOB, UBSan
# UB, TSan data race) makes a run exit non-zero and fails the test.
#
# Inputs (via -D):
#   SOURCE_DIR - repository root
#   WORK_DIR   - scratch directory for the nested build
#   SANITIZE   - MHS_SANITIZE value, e.g. "address,undefined" or "thread"
#   SUITES     - comma-separated test binaries (tests/<name>) to build
#                and run
if(NOT SOURCE_DIR OR NOT WORK_DIR OR NOT SANITIZE OR NOT SUITES)
  message(FATAL_ERROR "run_sanitized.cmake needs -DSOURCE_DIR, -DWORK_DIR, "
                      "-DSANITIZE and -DSUITES")
endif()
string(REPLACE "," ";" suites "${SUITES}")

set(build_dir "${WORK_DIR}/build")
file(MAKE_DIRECTORY "${build_dir}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -S "${SOURCE_DIR}" -B "${build_dir}"
          -DMHS_SANITIZE=${SANITIZE}
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
    message(FATAL_ERROR "${suite} failed under ${SANITIZE} (rc=${suite_rc})")
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
  message(FATAL_ERROR "equiv_fuzz failed under ${SANITIZE} (rc=${equiv_rc})")
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

message(STATUS "sanitizers ${SANITIZE}: every suite clean")
