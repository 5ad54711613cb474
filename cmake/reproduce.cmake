# reproduce: re-derive results/ from results/MANIFEST. Runs every
# manifest line's harness at --threads=2 (results are bit-identical at
# any thread count), drops its "wall ..." and "wrote ..." lines, and
# fails on any other difference from the committed file, printing the
# manifest command that regenerates it. Invoked as:
#   cmake -DBENCH_DIR=<build/bench> -DRESULTS=<source>/results
#         -DWORK=<scratch dir> [-DONLY=<result file>] -P reproduce.cmake
# ONLY restricts the run to one manifest line (the tier-1
# reproduce_paper test checks paper.txt); without it every line runs
# and every results/*.txt file must have a manifest line.
cmake_minimum_required(VERSION 3.20)
if(NOT BENCH_DIR OR NOT RESULTS OR NOT WORK)
  message(FATAL_ERROR "reproduce: BENCH_DIR, RESULTS and WORK must be defined")
endif()
file(MAKE_DIRECTORY ${WORK})

file(STRINGS ${RESULTS}/MANIFEST manifest REGEX "^[^#]")
set(listed "")
set(failures "")
foreach(line IN LISTS manifest)
  separate_arguments(fields UNIX_COMMAND "${line}")
  list(POP_FRONT fields result harness)
  list(APPEND listed ${result})
  if(ONLY AND NOT result STREQUAL ONLY)
    continue()
  endif()
  list(JOIN fields " " args)
  set(regenerate "./build/bench/${harness} ${args} | grep -v -e '^wall ' -e '^wrote ' > results/${result}")

  execute_process(
    COMMAND ${BENCH_DIR}/${harness} ${fields} --threads=2
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE fresh
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    string(APPEND failures
           "\nresults/${result}: ${harness} exited with ${rc}\n${stderr}")
    continue()
  endif()
  # Drop the run-dependent lines; the leading newline anchors the first.
  string(REGEX REPLACE "\n(wall|wrote) [^\n]*" "" fresh "\n${fresh}")
  string(SUBSTRING "${fresh}" 1 -1 fresh)
  file(WRITE ${WORK}/${result} "${fresh}")

  file(READ ${RESULTS}/${result} committed)
  if(fresh STREQUAL committed)
    message(STATUS "reproduce: results/${result} ok")
    continue()
  endif()
  string(APPEND failures
         "\nresults/${result} differs from a fresh run (${WORK}/${result});"
         " regenerate with:\n  ${regenerate}\n")
endforeach()

if(ONLY AND NOT ONLY IN_LIST listed)
  string(APPEND failures "\n${ONLY} has no line in results/MANIFEST\n")
endif()
if(NOT ONLY)
  file(GLOB committed_files RELATIVE ${RESULTS} ${RESULTS}/*.txt)
  foreach(result IN LISTS committed_files)
    if(NOT result IN_LIST listed)
      string(APPEND failures "\nresults/${result} has no line in results/MANIFEST\n")
    endif()
  endforeach()
endif()
if(failures)
  message(FATAL_ERROR "reproduce: results/ drifted from the code${failures}")
endif()
