# Runs a command and checks its exit code and output, for tests that a plain
# add_test cannot express (a particular non-zero exit code):
#
#   cmake -DEXIT_CODE=N [-DEXPECT=REGEX] [-DFORBID=REGEX]
#         -P expect_exit.cmake -- COMMAND [ARG...]
#
# Fails unless COMMAND exits with N, its stdout and stderr together match
# EXPECT, and they do not match FORBID.

set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXIT_CODE)
  message(FATAL_ERROR "usage: cmake -DEXIT_CODE=N [-DEXPECT=RE] [-DFORBID=RE] "
                      "-P expect_exit.cmake -- COMMAND [ARG...]")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(output "${out}${err}")
message("${output}")
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT_CODE}")
endif()
if(DEFINED EXPECT AND NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}'")
endif()
if(DEFINED FORBID AND output MATCHES "${FORBID}")
  message(FATAL_ERROR "output matches '${FORBID}'")
endif()
