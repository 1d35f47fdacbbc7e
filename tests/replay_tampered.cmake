# Usage: cmake -DCLI=<mparch_cli> -DOUT=<dir> -P replay_tampered.cmake
#
# Journals a 40-trial memory campaign on mxm single, checks that
# `mparch_cli replay-trial` agrees with trial 1's record, then
# rewrites that record to `1,sdc,0.5,0.9,2,3,2,0` and checks that the
# replay now exits 1 and names the first journal column that differs.

cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${OUT}")
execute_process(
    COMMAND "${CLI}" campaign --workload mxm --precision single
            --site memory --trials 40 --scale 0.1 --jobs 1
            --journal "${OUT}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "campaign exited with '${status}'\n${err}")
endif()
set(journal "${OUT}/mxm-single-memory.mpj")

execute_process(
    COMMAND "${CLI}" replay-trial --journal "${journal}" --trial 1
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0" OR NOT out MATCHES "replay consistent +yes")
    message(FATAL_ERROR
        "untouched journal: exit '${status}'\n${out}\n${err}")
endif()

file(READ "${journal}" text)
string(REGEX REPLACE "\n1,[^\n]*\n" "\n1,sdc,0.5,0.9,2,3,2,0\n"
    tampered "${text}")
if(tampered STREQUAL text)
    message(FATAL_ERROR "trial 1's record not found in ${journal}")
endif()
file(WRITE "${journal}" "${tampered}")

execute_process(
    COMMAND "${CLI}" replay-trial --journal "${journal}" --trial 1
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR
        "tampered journal: expected exit 1, got '${status}'\n${out}")
endif()
if(NOT out MATCHES "replay consistent +NO" OR
   NOT out MATCHES "first differing column +(outcome|max_rel|corrupted_fraction|severity|bit|field) *\n")
    message(FATAL_ERROR "tampered journal: no differing column named\n${out}")
endif()
