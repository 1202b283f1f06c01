# Runs bench_diff and passes only if it reports a regression of one metric.
#
#   cmake -DBENCH_DIFF=<bench_diff> -DBASELINE=<baseline.json>
#         -DARTIFACT=<BENCH_*.json> -DMETRIC=<name> -P expect_regression.cmake
#
# bench_diff must exit with status 1 (not 0, not a signal) and print a
# REGRESSION line for METRIC.
execute_process(COMMAND ${BENCH_DIFF} ${BASELINE} ${ARTIFACT}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "bench_diff exited with '${status}', expected 1")
endif()
if(NOT out MATCHES "\n  ${METRIC} +[^\n]* REGRESSION\n")
  message(FATAL_ERROR "bench_diff did not report ${METRIC} as a regression")
endif()
