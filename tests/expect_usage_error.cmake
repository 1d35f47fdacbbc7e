# Usage: cmake -P expect_usage_error.cmake -- <program> [args...]
#
# Runs the command after `--` and passes only when it exits with the
# usage-error status, 2, and prints usage on stderr. A crash, a
# fatal() (exit 1) or a silent run with a default all fail.

set(cmd "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "no command after --")
endif()

execute_process(COMMAND ${cmd}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
    message(FATAL_ERROR
        "expected exit status 2, got '${status}'\n"
        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "no usage text on stderr:\n${err}")
endif()
