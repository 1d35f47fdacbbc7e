# Usage: cmake -DGENERATOR=<mparch_mnist_weights> -DCOMMITTED=<file>
#              -DOUT=<file> -P compare_mnist_weights.cmake
#
# Retrains the MNIST classifier through GENERATOR into OUT and
# compares it byte for byte with the committed weights table
# COMMITTED (src/nn/mnist_weights.cc). Every value is a %a hex-float
# literal, so equal text means equal bits. A difference means this
# host's trainer (its libm exp, say) makes other weights than the
# committed ones, or the table was edited by hand; the failure prints
# the command that regenerates the table.

cmake_minimum_required(VERSION 3.16)

execute_process(
    COMMAND "${GENERATOR}"
    RESULT_VARIABLE status OUTPUT_FILE "${OUT}" ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "mparch_mnist_weights exited with '${status}'\n"
        "${err}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${COMMITTED}"
    RESULT_VARIABLE differ)
if(NOT differ STREQUAL "0")
    include("${CMAKE_CURRENT_LIST_DIR}/first_difference.cmake")
    set(failures "")
    file(READ "${COMMITTED}" expected)
    file(READ "${OUT}" actual)
    report_first_difference("mnist_weights.cc" "${expected}" "${actual}")
    # NOTICE prints verbatim; FATAL_ERROR would re-wrap the lines.
    message(NOTICE "Retrained MNIST weights differ from ${COMMITTED}:\n"
        "${failures}"
        "If the change is meant to move the weights, regenerate with\n"
        "  ${GENERATOR} > ${COMMITTED}\n"
        "and name the results that moved in CHANGES.md.")
    message(FATAL_ERROR "MNIST weights differ from the committed table")
endif()
