# bench-smoke: exercise the parallel campaign path end-to-end and
# validate the machine-readable report. Fails on non-zero exit or
# malformed JSON. Invoked by CTest (see tests/CMakeLists.txt) as:
#   cmake -DBENCH=<bench_table1_defects> -DOUT=<report.json> -P bench_smoke.cmake
# FLAGS overrides the preset flag (default --quick; bench_bank uses its
# own --smoke sweep). Pass a ;-list for multiple flags. KEYS, a ;-list,
# names entries the report's "result" payload must carry.
if(NOT BENCH OR NOT OUT)
  message(FATAL_ERROR "bench_smoke: BENCH and OUT must be defined")
endif()
if(NOT DEFINED FLAGS)
  set(FLAGS --quick)
endif()

execute_process(
  COMMAND ${BENCH} ${FLAGS} --threads=2 --json=${OUT}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: ${BENCH} exited with ${rc}\n${stdout}\n${stderr}")
endif()

if(NOT EXISTS ${OUT})
  message(FATAL_ERROR "bench_smoke: ${BENCH} did not write ${OUT}")
endif()
file(READ ${OUT} report)

# string(JSON) parses the document; any syntax error or missing key
# lands in `err`.
foreach(field schema bench wall_seconds threads classes_evaluated
        classes_per_sec)
  string(JSON value ERROR_VARIABLE err GET "${report}" ${field})
  if(err)
    message(FATAL_ERROR "bench_smoke: malformed JSON report (${field}): ${err}")
  endif()
endforeach()

string(JSON schema GET "${report}" schema)
if(NOT schema STREQUAL "dot-bench-v1")
  message(FATAL_ERROR "bench_smoke: expected schema=dot-bench-v1, got '${schema}'")
endif()

string(JSON bench_name GET "${report}" bench)
get_filename_component(expected_bench ${BENCH} NAME)
if(NOT bench_name STREQUAL expected_bench)
  message(FATAL_ERROR
          "bench_smoke: expected bench=${expected_bench}, got '${bench_name}'")
endif()

string(JSON threads GET "${report}" threads)
if(NOT threads EQUAL 2)
  message(FATAL_ERROR "bench_smoke: expected threads=2, got '${threads}'")
endif()

foreach(key IN LISTS KEYS)
  string(JSON value ERROR_VARIABLE err GET "${report}" result ${key})
  if(err)
    message(FATAL_ERROR "bench_smoke: result has no ${key}: ${err}")
  endif()
endforeach()

message(STATUS "bench_smoke: ok (${bench_name}, ${threads} threads)")
