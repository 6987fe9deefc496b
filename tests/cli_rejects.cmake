# Input-validation contract for the command-line tools:
#
#   cmake -P cli_rejects.cmake -- <program> <args>...
#
# runs the program and echoes its stderr only when it exits 2 having
# written nothing to stdout, so the calling test's PASS_REGULAR_EXPRESSION
# (which ctest applies regardless of exit code) can only match a diagnostic
# that arrived the right way. Anything else fails the test.
set(cmd)
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(collect TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT out STREQUAL "")
  message(FATAL_ERROR
    "expected exit 2 and empty stdout, got exit '${rc}'; stdout:\n${out}")
endif()
message("${err}")
