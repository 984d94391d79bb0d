# Writes OUTPUT, a header defining USW_BUILD_GIT_SHA as the short sha of the
# commit checked out at SOURCE_DIR, or "unknown" when GIT is empty, the
# command fails, or SOURCE_DIR is not the top of a checkout (a `git archive`
# export unpacked inside another repository must not report that
# repository's commit). The file is rewritten only when its content changes,
# so an unchanged sha recompiles nothing.
#
#   cmake -DGIT=<git> -DSOURCE_DIR=<repo root> -DOUTPUT=<header> -P git_sha.cmake

cmake_minimum_required(VERSION 3.20)

set(sha "unknown")
if(GIT)
  execute_process(
    COMMAND "${GIT}" rev-parse --show-toplevel --short HEAD
    WORKING_DIRECTORY "${SOURCE_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
  if(rc EQUAL 0)
    string(REPLACE "\n" ";" out "${out}")
    list(GET out 0 top)
    list(GET out 1 head)
    get_filename_component(top "${top}" REALPATH)
    get_filename_component(root "${SOURCE_DIR}" REALPATH)
    if(top STREQUAL root)
      set(sha "${head}")
    endif()
  endif()
endif()

file(CONFIGURE OUTPUT "${OUTPUT}"
  CONTENT "#define USW_BUILD_GIT_SHA \"@sha@\"\n"
  @ONLY)
