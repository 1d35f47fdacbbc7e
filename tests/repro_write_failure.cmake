# Usage: cmake -DREPRO=<mparch_repro> -DOUT=<dir> -P repro_write_failure.cmake
#
# Makes OUT/fig2_fpga_resources.json a directory, so the JSON document
# cannot be written (also when run as root), runs that one experiment
# with --json OUT and checks that mparch_repro names the file and
# exits 1 instead of reporting success.

cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}/fig2_fpga_resources.json")
execute_process(
    COMMAND "${REPRO}" --filter "^fig2_fpga_resources$" --no-progress
            --json "${OUT}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit 1, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "failed writing [^\n]*/fig2_fpga_resources\\.json")
    message(FATAL_ERROR "no write failure reported:\n${err}")
endif()
