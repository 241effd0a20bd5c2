# Every scenario of GOLDEN ("<digest> <mron_cli flags>" per line, '#'
# comments) must give its committed digest: CLI is run with the flags and
# --digest from SOURCE_DIR (plan paths are relative to it). A mismatch
# names the command that reproduces the scenario.
file(STRINGS ${GOLDEN} lines)
set(failures "")
set(scenarios 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^#" OR line STREQUAL "")
    continue()
  endif()
  if(NOT line MATCHES "^([0-9a-f]+) (.*)$")
    message(FATAL_ERROR "malformed line in ${GOLDEN}: ${line}")
  endif()
  set(want ${CMAKE_MATCH_1})
  set(flags "${CMAKE_MATCH_2}")
  separate_arguments(args UNIX_COMMAND "${flags}")
  execute_process(
    COMMAND ${CLI} ${args} --digest
    WORKING_DIRECTORY ${SOURCE_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  math(EXPR scenarios "${scenarios} + 1")
  if(NOT rc EQUAL 0)
    string(APPEND failures "\n  exit ${rc}: mron_cli ${flags}\n${err}")
  elseif(NOT out MATCHES "digest=([0-9a-f]+)")
    string(APPEND failures "\n  no digest line: mron_cli ${flags}")
  elseif(NOT CMAKE_MATCH_1 STREQUAL want)
    string(APPEND failures
      "\n  digest ${CMAKE_MATCH_1}, golden ${want}: mron_cli ${flags}")
  endif()
endforeach()
if(scenarios EQUAL 0)
  message(FATAL_ERROR "no scenarios in ${GOLDEN}")
endif()
if(NOT failures STREQUAL "")
  message(FATAL_ERROR
    "simulation digests differ from ${GOLDEN}; reproduce from the "
    "repository root with --digest:${failures}")
endif()
message(STATUS "${scenarios} simulation digests match ${GOLDEN}")
