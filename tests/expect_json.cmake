# Passes only if a Chrome-trace export parses as JSON and holds at least one
# event.
#
#   cmake -DTRACE=<BENCH_*.trace.json> -P expect_json.cmake
#
# Fails if the file is missing, if it does not parse (for example a truncated
# write), or if its traceEvents array is absent or empty.
file(READ ${TRACE} text)
string(JSON count ERROR_VARIABLE err LENGTH "${text}" traceEvents)
if(err)
  message(FATAL_ERROR "${TRACE}: ${err}")
endif()
if(count EQUAL 0)
  message(FATAL_ERROR "${TRACE}: traceEvents is empty")
endif()
message("${TRACE}: ${count} trace events")
