# Usage: cmake -DCLI=<mparch_cli> -DJOURNAL=<file.mpj> -DOUT=<dir>
#              -P replay_bad_scale.cmake
#
# Copies JOURNAL with its `#scale=` line raised past cli::kMaxScale
# and checks that `mparch_cli replay-trial` refuses the header (exit 1,
# "bad scale") instead of building a workload at that scale.

cmake_minimum_required(VERSION 3.16)

file(READ "${JOURNAL}" text)
string(REGEX REPLACE "\n#scale=[^\n]*\n" "\n#scale=17\n" tampered
    "${text}")
if(tampered STREQUAL text)
    message(FATAL_ERROR "no #scale= line in ${JOURNAL}")
endif()
file(REMOVE_RECURSE "${OUT}")
file(WRITE "${OUT}/tampered.mpj" "${tampered}")

execute_process(
    COMMAND "${CLI}" replay-trial --journal "${OUT}/tampered.mpj"
            --trial 0
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit 1, got '${status}'\n${out}\n${err}")
endif()
if(NOT err MATCHES "bad scale '17'")
    message(FATAL_ERROR "header scale not refused:\n${err}")
endif()
