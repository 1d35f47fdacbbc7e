# Usage: cmake -DCLI=<mparch_cli> -DGOLDEN=<dir> -DOUT=<dir>
#              [-DRECORD=ON] -P compare_study.cmake
#
# Runs `mparch_cli study --json` for one study per device model and
# compares each ResultDoc line by line with its pinned copy
# GOLDEN/<arch>-<workload>.json: the study renderer's columns (FIT,
# MEBF, avf-dp, pvf, severity split, coverage, TRE table) must not
# move unnoticed. RECORD=ON rewrites GOLDEN from this run instead.

cmake_minimum_required(VERSION 3.16)
include("${CMAKE_CURRENT_LIST_DIR}/first_difference.cmake")

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(failures "")
foreach(study fpga:mnist xeon-phi:mxm gpu:micro-fma)
    string(REPLACE ":" ";" parts "${study}")
    list(GET parts 0 arch)
    list(GET parts 1 workload)
    set(id "${arch}-${workload}")
    execute_process(
        COMMAND "${CLI}" study --arch ${arch} --workload ${workload}
                --trials 20 --scale 0.1 --jobs 1
                --json "${OUT}/${id}.json"
        RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "study ${id} exited with '${status}'\n${err}")
    endif()
    if(RECORD)
        file(COPY "${OUT}/${id}.json" DESTINATION "${GOLDEN}")
        continue()
    endif()
    if(NOT EXISTS "${GOLDEN}/${id}.json")
        string(APPEND failures "${id}: no pinned ${GOLDEN}/${id}.json\n")
        continue()
    endif()
    file(READ "${GOLDEN}/${id}.json" expected)
    file(READ "${OUT}/${id}.json" actual)
    if(NOT expected STREQUAL actual)
        report_first_difference("${id}" "${expected}" "${actual}")
    endif()
endforeach()

if(RECORD)
    message(STATUS "recorded ${GOLDEN}")
elseif(failures)
    # NOTICE prints verbatim; FATAL_ERROR would re-wrap the lines.
    message(NOTICE "study documents differ from ${GOLDEN}:\n${failures}"
        "If the change is meant to move results, re-record with\n"
        "  cmake -DCLI=${CLI} -DGOLDEN=${GOLDEN} -DOUT=${OUT}"
        " -DRECORD=ON -P ${CMAKE_CURRENT_LIST_FILE}\n"
        "and name the values that moved in CHANGES.md.")
    message(FATAL_ERROR "pinned study documents differ")
endif()
