# Runs the command after "--", echoes its output, and requires its exit
# status to be EXPECT_EXIT:
#
#   cmake -DEXPECT_EXIT=1 -P ExpectExit.cmake -- <command> [args...]
#
# (An argument must not hold a ';', the CMake list separator.)
# Any other status prints "ExpectExit: unexpected exit status", which
# opd_add_reject_test (CMakeLists.txt here) makes a FAIL_REGULAR_EXPRESSION:
# a test with a PASS_REGULAR_EXPRESSION passes on its output alone, so the
# status has to fail it through the output too.
set(_opd_cmd)
set(_opd_after_sep FALSE)
math(EXPR _opd_last "${CMAKE_ARGC} - 1")
foreach(_opd_i RANGE 0 ${_opd_last})
  if(_opd_after_sep)
    list(APPEND _opd_cmd "${CMAKE_ARGV${_opd_i}}")
  elseif("${CMAKE_ARGV${_opd_i}}" STREQUAL "--")
    set(_opd_after_sep TRUE)
  endif()
endforeach()
execute_process(COMMAND ${_opd_cmd}
  RESULT_VARIABLE _opd_status
  OUTPUT_VARIABLE _opd_output
  ERROR_VARIABLE _opd_output)
message("${_opd_output}")
if(NOT "${_opd_status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "ExpectExit: unexpected exit status ${_opd_status}, wanted ${EXPECT_EXIT}")
endif()
