# Usage: cmake -DCLI=<mparch_cli> -DJOURNAL=<file.mpj> -DOUT=<dir>
#              -DKEY=<header key> -DVALUE=<value>
#              -P replay_bad_header.cmake
#
# Copies JOURNAL with its `#KEY=` line set to VALUE and checks that
# `mparch_cli replay-trial` refuses the header (exit 1, "bad KEY
# 'VALUE'") instead of panicking: when it reads the journal, before
# building a workload, or, for a kind filter that selects no op of
# the golden run, before building a trial runner.

cmake_minimum_required(VERSION 3.16)

file(READ "${JOURNAL}" text)
string(REGEX REPLACE "\n#${KEY}=[^\n]*\n" "\n#${KEY}=${VALUE}\n" tampered
    "${text}")
if(tampered STREQUAL text)
    message(FATAL_ERROR "no #${KEY}= line in ${JOURNAL}")
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
string(FIND "${err}" "bad ${KEY} '${VALUE}'" at)
if(at EQUAL -1)
    message(FATAL_ERROR "header ${KEY} not refused:\n${err}")
endif()
