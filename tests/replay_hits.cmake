# Usage: cmake -DCLI=<mparch_cli> -DJOURNAL=<persistent.mpj>
#              -DPINS=<trial>:<hits>;... -P replay_hits.cmake
#
# Replays each listed trial of a persistent journal with
# `mparch_cli replay-trial` and checks that it agrees with its record
# and that its `fault` row reports `hits=<hits>`: the number of ops
# the broken unit touched, whichever route the library took for them.

cmake_minimum_required(VERSION 3.16)

foreach(pin IN LISTS PINS)
    string(REPLACE ":" ";" pin "${pin}")
    list(GET pin 0 trial)
    list(GET pin 1 hits)
    execute_process(
        COMMAND "${CLI}" replay-trial --journal "${JOURNAL}"
                --trial ${trial}
        RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT status STREQUAL "0" OR NOT out MATCHES "replay consistent +yes")
        message(FATAL_ERROR
            "trial ${trial}: exit '${status}'\n${out}\n${err}")
    endif()
    if(NOT out MATCHES " hits=${hits} resumed-at=")
        string(REGEX MATCH "hits=[0-9]+" got "${out}")
        message(FATAL_ERROR
            "trial ${trial}: expected hits=${hits}, got '${got}'\n${out}")
    endif()
endforeach()
