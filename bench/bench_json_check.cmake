# Tier-2 check: a bench run must emit a schema-valid BENCH_<name>.json
# that bench_report --check accepts. With BASELINE set it must also hold
# that committed baseline: `bench_report --baseline --check` exits
# non-zero when any directional metric regresses past THRESHOLD.
#
# Inputs (via -D):
#   BENCH_BIN   - bench executable to run
#   REPORT_BIN  - bench_report executable
#   OUT_DIR     - scratch directory for the JSON output
#   BASELINE    - (optional) committed baseline document to compare against
#   THRESHOLD   - regression threshold in percent (with BASELINE)
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "MHS_BENCH_OUT=${OUT_DIR}"
          "MHS_GIT_REV=ctest" "${BENCH_BIN}"
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench exited with ${bench_rc}")
endif()

set(baseline_args)
if(DEFINED BASELINE)
  set(baseline_args --baseline "${BASELINE}" --threshold "${THRESHOLD}")
endif()
execute_process(
  COMMAND "${REPORT_BIN}" --check ${baseline_args} "${OUT_DIR}"
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "bench_report --check exited with ${check_rc}")
endif()
