# Runs one example and checks its exit code and, optionally, a file it
# must write:
#
#   cmake -DCMD=<exe;args...> [-DRC=<exit code, default 0>]
#         [-DWRITES=<path>] -P example_check.cmake
#
# WRITES is removed before the run and its directory created, so a
# stale file from an earlier run cannot pass the check.
if(NOT DEFINED CMD)
  message(FATAL_ERROR "example_check: CMD must be defined")
endif()
if(NOT DEFINED RC)
  set(RC 0)
endif()
if(DEFINED WRITES)
  file(REMOVE "${WRITES}")
  get_filename_component(dir "${WRITES}" DIRECTORY)
  file(MAKE_DIRECTORY "${dir}")
endif()

execute_process(
  COMMAND ${CMD}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR
          "example_check: '${CMD}' exited with ${rc}, expected ${RC}\n"
          "${stdout}\n${stderr}")
endif()
if(DEFINED WRITES AND NOT EXISTS "${WRITES}")
  message(FATAL_ERROR "example_check: '${CMD}' did not write ${WRITES}\n"
                      "${stdout}\n${stderr}")
endif()
message(STATUS "example_check: ok (${CMD} -> ${rc})")
