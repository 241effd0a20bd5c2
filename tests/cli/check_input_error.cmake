# Bad user input is a user error: the binary BIN run with its fixed
# arguments FIXED (space-separated, may be empty) plus the single argument
# ARG must exit 2 and print exactly one stderr line, "error: <message>",
# with no internal-check text (MRON_CHECK failed ... at file:line).
separate_arguments(fixed UNIX_COMMAND "${FIXED}")
execute_process(
  COMMAND ${BIN} ${fixed} ${ARG}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "'${ARG}': exit code ${rc}, want 2; stderr: ${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT err MATCHES "^error: ")
  message(FATAL_ERROR "'${ARG}': want one 'error: ' line, got: ${err}")
endif()
if(err MATCHES "MRON_CHECK")
  message(FATAL_ERROR "'${ARG}': internal check text in: ${err}")
endif()
